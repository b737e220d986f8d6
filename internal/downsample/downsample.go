// Package downsample implements the paper's §VII-A optimization: a
// bandpass-sampling front-end that reduces the STFT workload. The 20 kHz
// probe band [19530, 20470] Hz is isolated with a linear-phase FIR
// bandpass filter and then decimated by an integer factor; by the
// bandpass sampling theorem the band folds intact into the low-rate
// spectrum, so an FFT a factor smaller recovers the same Doppler
// information. The rest of the pipeline runs unchanged on the derived
// configuration.
//
// With the paper's parameters and factor 8, the per-frame FFT shrinks
// from 8192 to 1024 points at identical bin resolution (5.38 Hz) and
// frame rate.
package downsample

import (
	"fmt"
	"math"

	"repro/internal/audio"
	"repro/internal/calibrate"
	"repro/internal/dsp"
	"repro/internal/pipeline"
)

// Frontend converts full-rate audio into the decimated stream and carries
// the matching pipeline configuration.
type Frontend struct {
	factor int
	taps   []float64
	base   pipeline.Config
	cfg    pipeline.Config
}

// New designs a front-end for the given base configuration and decimation
// factor. The factor must divide the FFT size and hop, and the probe band
// must fold into a single Nyquist zone of the decimated rate.
func New(base pipeline.Config, factor, firTaps int) (*Frontend, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if factor < 2 {
		return nil, fmt.Errorf("downsample: factor must be >= 2, got %d", factor)
	}
	if base.STFT.FFTSize%factor != 0 || base.STFT.HopSize%factor != 0 {
		return nil, fmt.Errorf("downsample: factor %d must divide FFT size %d and hop %d",
			factor, base.STFT.FFTSize, base.STFT.HopSize)
	}
	fs := base.STFT.SampleRate
	fsOut := fs / float64(factor)
	nyqOut := fsOut / 2

	// Band of interest at full rate.
	f1 := float64(base.STFT.LowBin) * fs / float64(base.STFT.FFTSize)
	f2 := float64(base.STFT.HighBin) * fs / float64(base.STFT.FFTSize)

	// The whole band must sit inside one Nyquist zone of the output
	// rate, or folding would alias it onto itself.
	zone1 := int(f1 / nyqOut)
	zone2 := int((f2 - 1e-9) / nyqOut)
	if zone1 != zone2 {
		return nil, fmt.Errorf("downsample: band [%.0f, %.0f] Hz straddles Nyquist zones %d and %d at fs/%d",
			f1, f2, zone1, zone2, factor)
	}
	inverted := zone1%2 == 1
	alias := func(f float64) float64 {
		if inverted {
			return float64(zone1+1)*nyqOut - f
		}
		return f - float64(zone1)*nyqOut
	}

	taps, err := dsp.FIRBandpass(firTaps, fs, f1-150, f2+150)
	if err != nil {
		return nil, fmt.Errorf("downsample: %w", err)
	}

	cfg := base
	cfg.STFT.SampleRate = fsOut
	cfg.STFT.FFTSize = base.STFT.FFTSize / factor
	cfg.STFT.HopSize = base.STFT.HopSize / factor
	aliasLo, aliasHi := alias(f1), alias(f2)
	if inverted {
		aliasLo, aliasHi = aliasHi, aliasLo
	}
	cfg.STFT.LowBin = int(aliasLo * float64(cfg.STFT.FFTSize) / fsOut)
	cfg.STFT.HighBin = int(aliasHi*float64(cfg.STFT.FFTSize)/fsOut+0.5) + 1
	if cfg.STFT.HighBin > cfg.STFT.FFTSize/2 {
		cfg.STFT.HighBin = cfg.STFT.FFTSize / 2
	}
	cfg.PhysicalCarrierHz = base.PhysicalCarrier()
	cfg.CarrierHz = alias(base.CarrierHz)
	cfg.InvertSpectrum = inverted != base.InvertSpectrum
	// An N/factor-point FFT scales coherent magnitudes down by the same
	// factor, so the absolute energy gate α must shrink with it.
	cfg.EnergyThreshold = base.EnergyThreshold / float64(factor)
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("downsample: derived config: %w", err)
	}
	return &Frontend{factor: factor, taps: taps, base: base, cfg: cfg}, nil
}

// Factor returns the decimation factor.
func (f *Frontend) Factor() int { return f.factor }

// Config returns the derived pipeline configuration for engines consuming
// the decimated stream.
func (f *Frontend) Config() pipeline.Config { return f.cfg }

// Process bandpass-filters and decimates a full-rate signal.
func (f *Frontend) Process(sig *audio.Signal) (*audio.Signal, error) {
	if math.Abs(sig.Rate-f.base.STFT.SampleRate) > 1e-9 {
		return nil, fmt.Errorf("downsample: signal rate %g does not match base rate %g",
			sig.Rate, f.base.STFT.SampleRate)
	}
	out, err := dsp.FilterDecimate(sig.Samples, f.taps, f.factor)
	if err != nil {
		return nil, err
	}
	return &audio.Signal{Samples: out, Rate: sig.Rate / float64(f.factor)}, nil
}

// NewEngine builds a pipeline engine on the derived configuration.
func (f *Frontend) NewEngine() (*pipeline.Engine, error) {
	return pipeline.NewEngine(f.cfg)
}

// CalibratedEngine builds an engine on the derived configuration with
// pipeline-calibrated templates: each canonical stroke is synthesized at
// the full rate and pushed through Process before its profile is
// extracted — the downsampled counterpart of
// calibrate.NewCalibratedEngine.
func (f *Frontend) CalibratedEngine() (*pipeline.Engine, error) {
	eng, err := f.NewEngine()
	if err != nil {
		return nil, err
	}
	if err := calibrate.Install(eng, f.base, f.Process); err != nil {
		return nil, err
	}
	return eng, nil
}
