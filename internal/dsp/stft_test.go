package dsp

import (
	"math"
	"testing"
)

func TestDefaultSTFTConfigMatchesPaper(t *testing.T) {
	cfg := DefaultSTFTConfig()
	if cfg.FFTSize != 8192 || cfg.HopSize != 1024 || cfg.SampleRate != 44100 {
		t.Fatalf("default STFT = %+v, want paper parameters 8192/1024/44100", cfg)
	}
	// The retained band should cover [19530, 20470] Hz, ≈350 bins wide
	// (paper §III-A: "reduced from 8192 to 350").
	width := cfg.HighBin - cfg.LowBin
	if width < 170 || width > 360 {
		t.Errorf("band width = %d bins, want within a factor of the paper's 350-ish", width)
	}
	lowHz := float64(cfg.LowBin) * cfg.SampleRate / float64(cfg.FFTSize)
	highHz := float64(cfg.HighBin) * cfg.SampleRate / float64(cfg.FFTSize)
	if lowHz > 19530+6 || lowHz < 19500 {
		t.Errorf("low edge = %g Hz, want ≈19530", lowHz)
	}
	if highHz < 20470-6 || highHz > 20500 {
		t.Errorf("high edge = %g Hz, want ≈20470", highHz)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestSTFTConfigValidation(t *testing.T) {
	base := DefaultSTFTConfig()
	cases := []struct {
		name   string
		mutate func(*STFTConfig)
	}{
		{"zero sample rate", func(c *STFTConfig) { c.SampleRate = 0 }},
		{"non power of two", func(c *STFTConfig) { c.FFTSize = 1000 }},
		{"zero hop", func(c *STFTConfig) { c.HopSize = 0 }},
		{"hop exceeds frame", func(c *STFTConfig) { c.HopSize = c.FFTSize * 2 }},
		{"negative low bin", func(c *STFTConfig) { c.LowBin = -1 }},
		{"band beyond Nyquist", func(c *STFTConfig) { c.HighBin = c.FFTSize }},
		{"inverted band", func(c *STFTConfig) { c.LowBin, c.HighBin = 100, 50 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate() accepted invalid config")
			}
		})
	}
}

func TestSTFTComputeFindsTone(t *testing.T) {
	cfg := STFTConfig{SampleRate: 44100, FFTSize: 4096, HopSize: 1024, Window: WindowHanning}
	st, err := NewSTFT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two seconds of 20 kHz tone.
	n := 2 * 44100
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 20000 * float64(i) / 44100)
	}
	spec, err := st.Compute(sig)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := (n-4096)/1024 + 1
	if spec.Frames() != wantFrames {
		t.Errorf("Frames() = %d, want %d", spec.Frames(), wantFrames)
	}
	if spec.Bins() != 2048 {
		t.Errorf("Bins() = %d, want 2048 (full half-spectrum)", spec.Bins())
	}
	// Peak bin should be at ≈20 kHz in every frame.
	toneBin := spec.FreqBin(20000)
	for f := 0; f < spec.Frames(); f++ {
		maxBin, maxVal := 0, 0.0
		for b, v := range spec.Data[f] {
			if v > maxVal {
				maxVal, maxBin = v, b
			}
		}
		if d := maxBin - toneBin; d < -1 || d > 1 {
			t.Fatalf("frame %d peak at bin %d, want ≈%d", f, maxBin, toneBin)
		}
	}
}

func TestSTFTBandCrop(t *testing.T) {
	cfg := DefaultSTFTConfig()
	st, err := NewSTFT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sig := make([]float64, 3*8192)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 20000 * float64(i) / 44100)
	}
	spec, err := st.Compute(sig)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Bins() != cfg.HighBin-cfg.LowBin {
		t.Errorf("Bins() = %d, want %d", spec.Bins(), cfg.HighBin-cfg.LowBin)
	}
	if spec.BinLow != cfg.LowBin {
		t.Errorf("BinLow = %d, want %d", spec.BinLow, cfg.LowBin)
	}
	// The 20 kHz tone must appear within the cropped band.
	local := spec.FreqBin(20000)
	if local < 0 || local >= spec.Bins() {
		t.Fatalf("carrier local bin %d outside band", local)
	}
	if spec.Data[0][local] < 100 {
		t.Errorf("carrier magnitude %g unexpectedly small", spec.Data[0][local])
	}
}

func TestSTFTShortSignal(t *testing.T) {
	st, err := NewSTFT(STFTConfig{SampleRate: 44100, FFTSize: 1024, HopSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compute(make([]float64, 512)); err == nil {
		t.Error("signal shorter than one frame accepted, want error")
	}
}

func TestFrameColumnLengthCheck(t *testing.T) {
	st, err := NewSTFT(STFTConfig{SampleRate: 44100, FFTSize: 1024, HopSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.FrameColumn(make([]float64, 100)); err == nil {
		t.Error("short frame accepted, want error")
	}
}

func TestSpectrogramAccessors(t *testing.T) {
	s := &Spectrogram{
		Data:       [][]float64{{1, 2, 3}, {4, 5, 6}},
		SampleRate: 44100,
		FFTSize:    8192,
		HopSize:    1024,
		BinLow:     3628,
	}
	if s.Frames() != 2 || s.Bins() != 3 {
		t.Fatalf("dims = %d×%d, want 2×3", s.Frames(), s.Bins())
	}
	if got := s.BinFreq(0); math.Abs(got-float64(3628)*44100/8192) > 1e-9 {
		t.Errorf("BinFreq(0) = %g", got)
	}
	if got := s.FrameTime(1); math.Abs(got-1024.0/44100) > 1e-12 {
		t.Errorf("FrameTime(1) = %g", got)
	}
	if got := s.FrameDuration(); math.Abs(got-1024.0/44100) > 1e-12 {
		t.Errorf("FrameDuration() = %g", got)
	}
	if got := s.MaxValue(); got != 6 {
		t.Errorf("MaxValue() = %g, want 6", got)
	}
	// Round trip bin <-> freq.
	if got := s.FreqBin(s.BinFreq(2)); got != 2 {
		t.Errorf("FreqBin(BinFreq(2)) = %d, want 2", got)
	}
}

func TestSpectrogramCloneIsDeep(t *testing.T) {
	s := &Spectrogram{Data: [][]float64{{1, 2}}, SampleRate: 44100, FFTSize: 8, HopSize: 4}
	c := s.Clone()
	c.Data[0][0] = 99
	if s.Data[0][0] == 99 {
		t.Error("Clone shares backing storage")
	}
}

func TestSpectrogramCrop(t *testing.T) {
	s := &Spectrogram{
		Data:       [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		SampleRate: 44100,
		FFTSize:    8192,
		HopSize:    1024,
		BinLow:     100,
	}
	c, err := s.Crop(101, 103)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bins() != 2 || c.BinLow != 101 {
		t.Fatalf("crop dims wrong: bins=%d binLow=%d", c.Bins(), c.BinLow)
	}
	if c.Data[0][0] != 2 || c.Data[1][1] != 7 {
		t.Errorf("crop values wrong: %v", c.Data)
	}
	if _, err := s.Crop(99, 102); err == nil {
		t.Error("crop below band accepted, want error")
	}
	if _, err := s.Crop(103, 103); err == nil {
		t.Error("empty crop accepted, want error")
	}
}

func TestEmptySpectrogram(t *testing.T) {
	s := &Spectrogram{}
	if s.Bins() != 0 || s.Frames() != 0 || s.MaxValue() != 0 {
		t.Error("empty spectrogram accessors should return zeros")
	}
}

// TestFrameColumnIntoAllocFree pins the hot-loop allocation contract the
// bench gate enforces: a column appended into preallocated capacity
// performs no allocation.
func TestFrameColumnIntoAllocFree(t *testing.T) {
	st, err := NewSTFT(DefaultSTFTConfig())
	if err != nil {
		t.Fatal(err)
	}
	frame := benchSignal(st.Config().FFTSize)
	dst := make([]float64, 0, st.Bins())
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := st.FrameColumnInto(dst[:0], frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FrameColumnInto allocated %v times per call, want 0", allocs)
	}
}
