package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullFFTSTFT is the paper's naive formulation of the STFT — window,
// embed the real frame in a full N-point complex FFT, crop the band —
// kept as the ground truth the band plan is differentially tested and
// benchmarked against. Like STFT it owns its scratch, so Compute
// allocates only the spectrogram (3 allocations).
type fullFFTSTFT struct {
	cfg     STFTConfig
	window  *Window
	plan    *FFTPlan
	framed  []float64
	scratch []complex128
}

// newFullFFTSTFT builds the reference for cfg, defaulted exactly as
// NewSTFT defaults it.
func newFullFFTSTFT(tb testing.TB, cfg STFTConfig) *fullFFTSTFT {
	tb.Helper()
	st, err := NewSTFT(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	cfg = st.Config()
	plan, err := NewFFTPlan(cfg.FFTSize)
	if err != nil {
		tb.Fatal(err)
	}
	return &fullFFTSTFT{
		cfg:     cfg,
		window:  st.window,
		plan:    plan,
		framed:  make([]float64, cfg.FFTSize),
		scratch: make([]complex128, cfg.FFTSize),
	}
}

// Compute mirrors STFT.Compute: one column per hop, trailing partial
// frames dropped, all columns over one backing array.
func (r *fullFFTSTFT) Compute(signal []float64) (*Spectrogram, error) {
	c := r.cfg
	if len(signal) < c.FFTSize {
		return nil, fmt.Errorf("signal length %d shorter than one frame (%d)", len(signal), c.FFTSize)
	}
	nFrames := (len(signal)-c.FFTSize)/c.HopSize + 1
	w := c.HighBin - c.LowBin
	out := &Spectrogram{
		Data:       make([][]float64, nFrames),
		SampleRate: c.SampleRate,
		FFTSize:    c.FFTSize,
		HopSize:    c.HopSize,
		BinLow:     c.LowBin,
	}
	backing := make([]float64, nFrames*w)
	for f := range out.Data {
		start := f * c.HopSize
		if _, err := r.window.Apply(signal[start:start+c.FFTSize], r.framed); err != nil {
			return nil, err
		}
		for i, v := range r.framed {
			r.scratch[i] = complex(v, 0)
		}
		r.plan.transform(r.scratch, false)
		out.Data[f] = Magnitudes(r.scratch[c.LowBin:c.HighBin], backing[f*w:(f+1)*w:(f+1)*w])
	}
	return out, nil
}

// referenceColumns computes a spectrogram with the full-FFT reference —
// the ground truth of the differential harness.
func referenceColumns(t testing.TB, cfg STFTConfig, signal []float64) *Spectrogram {
	t.Helper()
	spec, err := newFullFFTSTFT(t, cfg).Compute(signal)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// randomSignal draws a deterministic pseudo-random signal in [-1, 1].
func randomSignal(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = 2*rng.Float64() - 1
	}
	return sig
}

// TestBandEngineMatchesReference is the differential equivalence suite:
// randomized signals × all window kinds × band edges (degenerate 1-bin
// bands, DC and Nyquist edges, the full half-spectrum, the paper's
// default band), asserting every STFT column matches the full-FFT
// reference per bin within the 1e-9 harness tolerance.
func TestBandEngineMatchesReference(t *testing.T) {
	type bandCase struct {
		name      string
		low, high func(n int) int
	}
	bands := []bandCase{
		{"default-paper-band", func(n int) int { return n * 3628 / 8192 }, func(n int) int { return n*3978/8192 + 1 }},
		{"single-bin-dc", func(n int) int { return 0 }, func(n int) int { return 1 }},
		{"single-bin-mid", func(n int) int { return n / 4 }, func(n int) int { return n/4 + 1 }},
		{"single-bin-top", func(n int) int { return n/2 - 1 }, func(n int) int { return n / 2 }},
		{"dc-edge", func(n int) int { return 0 }, func(n int) int { return 9 }},
		{"nyquist-edge", func(n int) int { return n/2 - 9 }, func(n int) int { return n / 2 }},
		{"full-half-spectrum", func(n int) int { return 0 }, func(n int) int { return n / 2 }},
	}
	windows := []WindowKind{WindowHanning, WindowHamming, WindowRectangular, WindowBlackman}
	sizes := []int{64, 1024}
	for _, n := range sizes {
		for _, bc := range bands {
			for _, win := range windows {
				cfg := STFTConfig{
					SampleRate: 44100,
					FFTSize:    n,
					HopSize:    n / 4,
					Window:     win,
					LowBin:     bc.low(n),
					HighBin:    bc.high(n),
				}
				st, err := NewSTFT(cfg)
				if err != nil {
					t.Fatalf("n=%d band=%s win=%v: %v", n, bc.name, win, err)
				}
				for seed := int64(1); seed <= 3; seed++ {
					sig := randomSignal(seed*int64(n), 3*n)
					want := referenceColumns(t, cfg, sig)
					got, err := st.Compute(sig)
					if err != nil {
						t.Fatalf("n=%d band=%s win=%v: %v", n, bc.name, win, err)
					}
					assertSpectrogramsClose(t, got, want,
						"n=%d band=%s win=%v seed=%d", n, bc.name, win, seed)
				}
			}
		}
	}
}

// TestBandEngineMatchesReferencePaperConfig pins the differential bound
// at the exact serving configuration (8192/1024, 351-bin band).
func TestBandEngineMatchesReferencePaperConfig(t *testing.T) {
	cfg := DefaultSTFTConfig()
	sig := randomSignal(42, 4*cfg.FFTSize)
	// Add a strong in-band tone so the band isn't just noise floor.
	for i := range sig {
		sig[i] += 5 * math.Sin(2*math.Pi*20000*float64(i)/cfg.SampleRate)
	}
	want := referenceColumns(t, cfg, sig)
	st, err := NewSTFT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Compute(sig)
	if err != nil {
		t.Fatal(err)
	}
	assertSpectrogramsClose(t, got, want, "paper config")
}

func assertSpectrogramsClose(t *testing.T, got, want *Spectrogram, format string, args ...any) {
	t.Helper()
	if got.Frames() != want.Frames() || got.Bins() != want.Bins() || got.BinLow != want.BinLow {
		t.Fatalf("%s: shape %dx%d@%d, want %dx%d@%d",
			fmtArgs(format, args), got.Frames(), got.Bins(), got.BinLow, want.Frames(), want.Bins(), want.BinLow)
	}
	for f := range want.Data {
		for b := range want.Data[f] {
			if !withinTol(got.Data[f][b], want.Data[f][b]) {
				t.Fatalf("%s: frame %d bin %d: got %.17g, reference %.17g (Δ=%g)",
					fmtArgs(format, args), f, b, got.Data[f][b], want.Data[f][b],
					math.Abs(got.Data[f][b]-want.Data[f][b]))
			}
		}
	}
}

func fmtArgs(format string, args []any) string {
	if len(args) == 0 {
		return format
	}
	return fmt.Sprintf(format, args...)
}

// TestBandTransformValidation pins the band plan's per-call argument
// checks.
func TestBandTransformValidation(t *testing.T) {
	p, err := NewRFFTPlan(64)
	if err != nil {
		t.Fatal(err)
	}
	frame, win := make([]float64, 64), make([]float64, 64)
	for _, tc := range []struct {
		name       string
		frame, win []float64
		low, high  int
		dst        []float64
	}{
		{"negative low bin", frame, win, -1, 10, make([]float64, 11)},
		{"band past Nyquist", frame, win, 0, 33, make([]float64, 33)},
		{"empty band", frame, win, 5, 5, nil},
		{"short dst", frame, win, 3, 11, make([]float64, 4)},
		{"short frame", frame[:12], nil, 3, 11, make([]float64, 8)},
		{"short window", frame, win[:32], 3, 11, make([]float64, 8)},
	} {
		if err := p.Magnitudes(tc.frame, tc.win, tc.low, tc.high, tc.dst); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if err := p.Magnitudes(frame, nil, 3, 11, make([]float64, 8)); err != nil {
		t.Errorf("valid unwindowed band rejected: %v", err)
	}
}
