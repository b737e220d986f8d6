//go:build amd64

package dsp

// hasAVX reports whether the CPU and OS support 256-bit AVX state. The
// radix-4 DIF stages use a two-butterfly-per-iteration AVX kernel and
// the pack pass a vector window multiply when available; the pure-Go
// loops are the fallback and the semantics reference (the kernels
// perform the same flops in the same order, so magnitudes are
// bit-identical).
var hasAVX = cpuHasAVX()

// hasAVX512 reports whether the CPU and OS support full 512-bit AVX-512
// state (F+DQ plus opmask/ZMM XCR0 enablement). The radix-4 DIF stages
// widen to four butterflies per iteration when available, and the
// span-16/span-4 tail fuses into one register-resident kernel.
var hasAVX512 = cpuHasAVX512()

// cpuHasAVX checks CPUID for AVX and OSXSAVE and XGETBV for YMM state
// enablement. Implemented in rfft_amd64.s.
func cpuHasAVX() bool

// cpuHasAVX512 checks CPUID for AVX512F/DQ and XGETBV for ZMM state
// enablement. Implemented in rfft_amd64.s.
func cpuHasAVX512() bool

// difStageAVX runs one radix-4 DIF stage of the given span over z,
// processing two butterflies per iteration. twv is the stage's
// lane-duplicated twiddle table (see newStageTwiddlesVec). span must be
// >= 8 so every block holds at least one butterfly pair, and the caller
// must have verified hasAVX. Implemented in rfft_amd64.s.
//
//go:noescape
func difStageAVX(z []complex128, twv []float64, span int)

// difStageAVX512 runs one radix-4 DIF stage of the given span over z,
// processing four butterflies per iteration. tzv is the stage's
// lane-duplicated quad twiddle table (see newStageTwiddlesQuad). span
// must be >= 16 so every block holds at least one butterfly quad, and
// the caller must have verified hasAVX512. Implemented in
// rfft_amd64.s.
//
//go:noescape
func difStageAVX512(z []complex128, tzv []float64, span int)

// difStage16x4AVX512 runs the fused tail of the DIF network — the
// span-16 radix-4 stage immediately followed by the multiplication-free
// span-4 stage — per 16-complex block entirely in registers. tzv is the
// span-16 quad twiddle table (48 doubles, shared by every block).
// len(z) must be a multiple of 16 and the caller must have verified
// hasAVX512. Implemented in rfft_amd64.s.
//
//go:noescape
func difStage16x4AVX512(z []complex128, tzv []float64)

// packMulAVX performs the fused window multiply of the even/odd pack
// pass: dst viewed as 2·len(dst) doubles receives frame[i]·win[i]. The
// caller guarantees len(frame) == len(win) == 2·len(dst), that the
// length is a multiple of 8, and hasAVX. Implemented in rfft_amd64.s.
//
//go:noescape
func packMulAVX(dst []complex128, frame, win []float64)
