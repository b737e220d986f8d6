package dsp

import (
	"math"
	"testing"
)

// benchSignal synthesizes a deterministic multi-tone test signal long
// enough for a realistic spectrogram (2 s at the paper's rate).
func benchSignal(n int) []float64 {
	sig := make([]float64, n)
	for i := range sig {
		t := float64(i) / 44100
		sig[i] = math.Sin(2*math.Pi*20000*t) + 0.3*math.Sin(2*math.Pi*19800*t) + 0.05*math.Sin(2*math.Pi*440*t)
	}
	return sig
}

// BenchmarkSTFTCompute measures the full spectrogram computation for the
// paper's default 8192/1024/350-bin configuration: band is the serving
// STFT; fullfft is the differential reference it is validated against,
// and the row the bench gate divides every other row by.
func BenchmarkSTFTCompute(b *testing.B) {
	sig := benchSignal(2 * 44100)
	cfg := DefaultSTFTConfig()
	b.Run("band", func(b *testing.B) {
		st, err := NewSTFT(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchCompute(b, st.Compute, sig)
	})
	b.Run("fullfft", func(b *testing.B) {
		benchCompute(b, newFullFFTSTFT(b, cfg).Compute, sig)
	})
}

func benchCompute(b *testing.B, compute func([]float64) (*Spectrogram, error), sig []float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compute(sig); err != nil {
			b.Fatal(err)
		}
	}
}
