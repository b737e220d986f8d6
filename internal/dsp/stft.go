package dsp

import "fmt"

// STFTConfig parameterizes a short-time Fourier transform. The paper's
// settings are FFTSize=8192 (~0.186 s at 44.1 kHz) and HopSize=1024
// (~0.023 s), Hanning window.
type STFTConfig struct {
	// SampleRate of the input signal in Hz. Must be positive.
	SampleRate float64
	// FFTSize is the frame length in samples; must be a power of two.
	FFTSize int
	// HopSize is the step between frames in samples; must be positive and
	// no larger than FFTSize.
	HopSize int
	// Window selects the analysis window; zero value means Hanning.
	Window WindowKind
	// LowBin and HighBin optionally restrict the retained band to absolute
	// FFT bins [LowBin, HighBin). When both are zero the full non-negative
	// half [0, FFTSize/2) is kept.
	LowBin, HighBin int
}

// DefaultSTFTConfig returns the paper's STFT parameters for a 44.1 kHz
// stream, retaining the band of interest around the 20 kHz carrier
// ([19530, 20470] Hz, about 350 bins wide; see §III-A).
func DefaultSTFTConfig() STFTConfig {
	cfg := STFTConfig{
		SampleRate: 44100,
		FFTSize:    8192,
		HopSize:    1024,
		Window:     WindowHanning,
	}
	// 19530 Hz and 20470 Hz expressed as absolute bin indices.
	cfg.LowBin = int(19530 * float64(cfg.FFTSize) / cfg.SampleRate)
	cfg.HighBin = int(20470*float64(cfg.FFTSize)/cfg.SampleRate+0.5) + 1
	return cfg
}

// Validate checks config consistency.
func (c STFTConfig) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("dsp: sample rate must be positive, got %g", c.SampleRate)
	}
	if c.FFTSize < 2 || c.FFTSize&(c.FFTSize-1) != 0 {
		return fmt.Errorf("dsp: FFT size must be a power of two >= 2, got %d", c.FFTSize)
	}
	if c.HopSize <= 0 || c.HopSize > c.FFTSize {
		return fmt.Errorf("dsp: hop size must be in (0, %d], got %d", c.FFTSize, c.HopSize)
	}
	if c.LowBin < 0 || c.HighBin > c.FFTSize/2 || (c.HighBin != 0 && c.LowBin >= c.HighBin) {
		return fmt.Errorf("dsp: bin band [%d,%d) invalid for FFT size %d", c.LowBin, c.HighBin, c.FFTSize)
	}
	return nil
}

// STFT converts fixed-size signal frames into spectrogram columns. It owns
// a real-input plan, whose scratch plane is its only per-instance state:
// the plan's tables and the window coefficients are read-only and shared
// by every STFT of the same size and window, so many sessions' STFTs
// stay cheap in memory and keep one copy of them cache-hot. One
// instance should be reused across frames of a stream; an STFT is not
// safe for concurrent use.
type STFT struct {
	cfg    STFTConfig
	window *Window
	plan   *RFFTPlan
}

// NewSTFT validates cfg and precomputes the plan and window.
func NewSTFT(cfg STFTConfig) (*STFT, error) {
	if cfg.Window == 0 {
		cfg.Window = WindowHanning
	}
	if cfg.HighBin == 0 && cfg.LowBin == 0 {
		cfg.HighBin = cfg.FFTSize / 2
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	win, err := windowCache.get(windowKey{cfg.Window, cfg.FFTSize}, func() (*Window, error) {
		return NewWindow(cfg.Window, cfg.FFTSize)
	})
	if err != nil {
		return nil, err
	}
	plan, err := NewRFFTPlan(cfg.FFTSize)
	if err != nil {
		return nil, err
	}
	return &STFT{cfg: cfg, window: win, plan: plan}, nil
}

// windowKey identifies a shared STFT window.
type windowKey struct {
	kind WindowKind
	n    int
}

// windowCache holds one window per kind and length for every STFT.
var windowCache sharedCache[windowKey, *Window]

// Config returns the configuration the STFT was built with (after
// defaulting).
func (s *STFT) Config() STFTConfig { return s.cfg }

// Bins reports the retained band width, the length of every column.
func (s *STFT) Bins() int { return s.cfg.HighBin - s.cfg.LowBin }

// FrameColumn computes the magnitude spectrum of one frame, returning the
// retained band as a newly allocated slice. frame must be exactly FFTSize
// samples.
func (s *STFT) FrameColumn(frame []float64) ([]float64, error) {
	col, err := s.FrameColumnInto(make([]float64, 0, s.Bins()), frame)
	if err != nil {
		return nil, err
	}
	return col, nil
}

// FrameColumnInto computes the magnitude spectrum of one frame and
// appends the retained band to dst, returning the extended slice. frame
// must be exactly FFTSize samples. Callers computing many columns should
// preallocate dst with capacity frames×Bins so the column loop performs
// no per-column allocation (Compute does exactly this).
//
// ew:hotpath — runs once per hop per session on the serving path; the
// hotalloc analyzer keeps allocations out of its loops.
func (s *STFT) FrameColumnInto(dst []float64, frame []float64) ([]float64, error) {
	if len(frame) != s.cfg.FFTSize {
		return nil, fmt.Errorf("dsp: frame length %d does not match FFT size %d", len(frame), s.cfg.FFTSize)
	}
	w := s.Bins()
	n := len(dst)
	if cap(dst)-n < w {
		dst = append(dst, make([]float64, w)...)
	} else {
		dst = dst[: n+w : cap(dst)]
	}
	if err := s.plan.Magnitudes(frame, s.window.coeffs, s.cfg.LowBin, s.cfg.HighBin, dst[n:n+w]); err != nil {
		return nil, err
	}
	return dst, nil
}

// Compute runs the full STFT over signal, producing a spectrogram with one
// column per hop. Frames that would run past the end of the signal are
// dropped (no padding), matching a streaming implementation that waits for
// a full frame. All columns share one backing array sized up front, so the
// column loop itself allocates nothing.
//
// ew:hotpath — the column loop dominates signal-processing time; the
// hotalloc analyzer keeps per-iteration allocations out of it.
func (s *STFT) Compute(signal []float64) (*Spectrogram, error) {
	if len(signal) < s.cfg.FFTSize {
		return nil, fmt.Errorf("dsp: signal length %d shorter than one FFT frame (%d)", len(signal), s.cfg.FFTSize)
	}
	nFrames := (len(signal)-s.cfg.FFTSize)/s.cfg.HopSize + 1
	w := s.Bins()
	out := &Spectrogram{
		Data:       make([][]float64, nFrames),
		SampleRate: s.cfg.SampleRate,
		FFTSize:    s.cfg.FFTSize,
		HopSize:    s.cfg.HopSize,
		BinLow:     s.cfg.LowBin,
	}
	backing := make([]float64, 0, nFrames*w)
	for f := 0; f < nFrames; f++ {
		start := f * s.cfg.HopSize
		var err error
		backing, err = s.FrameColumnInto(backing, signal[start:start+s.cfg.FFTSize])
		if err != nil {
			return nil, fmt.Errorf("dsp: frame %d: %w", f, err)
		}
		out.Data[f] = backing[f*w : (f+1)*w : (f+1)*w]
	}
	return out, nil
}
