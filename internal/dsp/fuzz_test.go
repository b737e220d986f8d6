package dsp

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzBandTransform drives arbitrary PCM16 bytes and arbitrary band
// edges through the STFT and asserts two invariants: the band plan's
// spectrogram matches the full-FFT reference within the
// differential tolerance, and per-frame FrameColumn calls reproduce
// Compute's columns exactly (the streaming path and the batch path must
// never diverge).
func FuzzBandTransform(f *testing.F) {
	const n = 512 // one frame; large enough for 5 radix-4 stages + unpack

	f.Add([]byte{}, uint8(0), uint8(255), uint8(0))
	f.Add(make([]byte, 2*n), uint8(10), uint8(1), uint8(1)) // silence, 1-bin band
	f.Add([]byte{0x01, 0x80, 0xff, 0x7f}, uint8(255), uint8(255), uint8(2))
	tone := make([]byte, 4*n)
	for i := 0; i < 2*n; i++ {
		v := int16(20000 * math.Sin(2*math.Pi*float64(i)/8))
		binary.LittleEndian.PutUint16(tone[2*i:], uint16(v))
	}
	f.Add(tone, uint8(60), uint8(9), uint8(3))

	windows := []WindowKind{WindowHanning, WindowHamming, WindowRectangular, WindowBlackman}
	f.Fuzz(func(t *testing.T, data []byte, lowSel, widthSel, winSel uint8) {
		// Decode PCM16 into [-1,1) and pad/trim to [n, 4n] samples so
		// Compute always has at least one frame and at most 13 hops.
		nsamp := len(data) / 2
		if nsamp > 4*n {
			nsamp = 4 * n
		}
		sig := make([]float64, nsamp)
		for i := range sig {
			sig[i] = float64(int16(binary.LittleEndian.Uint16(data[2*i:]))) / 32768
		}
		for len(sig) < n {
			sig = append(sig, 0)
		}

		low := int(lowSel) % (n / 2)
		high := low + 1 + int(widthSel)%(n/2-low)
		cfg := STFTConfig{
			SampleRate: 44100,
			FFTSize:    n,
			HopSize:    n / 4,
			Window:     windows[int(winSel)%len(windows)],
			LowBin:     low,
			HighBin:    high,
		}
		want := referenceColumns(t, cfg, sig)

		st, err := NewSTFT(cfg)
		if err != nil {
			t.Fatalf("band=[%d,%d): %v", low, high, err)
		}
		got, err := st.Compute(sig)
		if err != nil {
			t.Fatalf("band=[%d,%d): %v", low, high, err)
		}
		assertSpectrogramsClose(t, got, want, "band=[%d,%d)", low, high)

		// Streaming/batch invariance: the per-frame entry point on the
		// same STFT instance must reproduce Compute's columns exactly,
		// whatever residue state the previous frames left behind.
		for fr := range got.Data {
			start := fr * cfg.HopSize
			col, err := st.FrameColumn(sig[start : start+n])
			if err != nil {
				t.Fatalf("frame %d: %v", fr, err)
			}
			for b := range col {
				if col[b] != got.Data[fr][b] {
					t.Fatalf("frame %d bin %d: FrameColumn %.17g, Compute %.17g (must be bit-identical)",
						fr, b, col[b], got.Data[fr][b])
				}
			}
		}
	})
}
