//go:build !amd64

package dsp

// hasAVX and hasAVX512 are false off amd64; RFFTPlan always takes the
// pure-Go loops.
const (
	hasAVX    = false
	hasAVX512 = false
)

// The vector kernels are never called when hasAVX/hasAVX512 are false;
// these stubs keep RFFTPlan portable.

func difStageAVX(z []complex128, twv []float64, span int) {
	panic("dsp: difStageAVX called without AVX support")
}

func difStageAVX512(z []complex128, tzv []float64, span int) {
	panic("dsp: difStageAVX512 called without AVX-512 support")
}

func difStage16x4AVX512(z []complex128, tzv []float64) {
	panic("dsp: difStage16x4AVX512 called without AVX-512 support")
}

func packMulAVX(dst []complex128, frame, win []float64) {
	panic("dsp: packMulAVX called without AVX support")
}
