package pipeline

import (
	"fmt"
	"math"
	"time"

	"repro/internal/audio"
	"repro/internal/dsp"
	"repro/internal/dtw"
	"repro/internal/imgproc"
	"repro/internal/mvce"
	"repro/internal/segment"
	"repro/internal/stroke"
)

// StageTimings records wall time spent per pipeline stage for one
// recognition call; the paper's Fig. 19 reports these.
type StageTimings struct {
	STFT         time.Duration
	Enhancement  time.Duration
	Profile      time.Duration
	Segmentation time.Duration
	DTW          time.Duration
}

// Total sums all stage durations.
func (t StageTimings) Total() time.Duration {
	return t.STFT + t.Enhancement + t.Profile + t.Segmentation + t.DTW
}

// Detection is one recognized stroke.
type Detection struct {
	// Segment is the frame interval of the stroke.
	Segment segment.Segment
	// Stroke is the best-matching template.
	Stroke stroke.Stroke
	// Distances holds the normalized DTW distance to each template,
	// indexed by Stroke.Index().
	Distances [stroke.NumStrokes]float64
	// Likelihoods are softmax scores over the (negated) distances: a
	// template-conditional observation likelihood usable as P(s|l) when
	// no empirical confusion matrix is available.
	Likelihoods [stroke.NumStrokes]float64
	// Contaminated marks detections whose segment overlaps burst-suspect
	// frames (see Config.Burst); the UI should ask for a rewrite rather
	// than trust the classification.
	Contaminated bool
}

// Recognition is the full output of one pipeline run.
type Recognition struct {
	// Profile is the extracted Doppler-shift profile in Hz per frame.
	Profile []float64
	// Segments are the detected stroke intervals.
	Segments []segment.Segment
	// Detections pair each segment with its classification.
	Detections []Detection
	// Sequence is the recognized stroke sequence (one entry per
	// detection).
	Sequence stroke.Sequence
	// BurstFrames lists frames flagged as wideband-burst contaminated
	// (empty when suppression is disabled).
	BurstFrames []int
	// Timings records per-stage processing cost.
	Timings StageTimings
	// Stages optionally retains intermediate matrices (see
	// Engine.KeepStages).
	Stages *Stages
}

// Stages holds intermediate artifacts for debugging and for reproducing
// the paper's Fig. 8 pipeline illustration.
type Stages struct {
	// Raw is the cropped magnitude spectrogram before any cleaning.
	Raw *dsp.Spectrogram
	// Denoised is the spectrogram after median filtering, spectral
	// subtraction, the energy gate and Gaussian smoothing.
	Denoised [][]float64
	// Binary is the binarized, hole-filled image.
	Binary [][]uint8
	// RawProfile is the contour before moving-average smoothing.
	RawProfile []float64
}

// Engine is a reusable recognizer. It owns the STFT state and the analytic
// template set. An Engine is not safe for concurrent use; create one per
// goroutine.
type Engine struct {
	cfg       Config
	stft      *dsp.STFT
	templates *stroke.TemplateSet
	// library holds the matching profiles actually used by DTW, indexed
	// by Stroke.Index(). By default these are the analytic templates;
	// SetTemplateLibrary installs pipeline-calibrated replacements.
	library [stroke.NumStrokes][]float64
	// gauss is the normalized Gaussian smoothing kernel.
	gauss []float64
	// KeepStages, when set, retains intermediate matrices in each
	// Recognition (costs memory; off by default).
	KeepStages bool
}

// NewEngine validates cfg and prepares the STFT plan and template set.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := dsp.NewSTFT(cfg.STFT)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	ts, err := stroke.NewTemplateSet(stroke.TemplateConfig{
		CarrierHz:  cfg.PhysicalCarrier(),
		SoundSpeed: cfg.SoundSpeed,
		FrameRate:  cfg.FrameRate(),
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	gauss, err := imgproc.GaussianKernel(cfg.GaussianKernel, 0)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	e := &Engine{cfg: cfg, stft: st, templates: ts, gauss: gauss}
	for _, s := range stroke.AllStrokes() {
		e.library[s.Index()] = ts.Profile(s)
	}
	return e, nil
}

// SetTemplateLibrary replaces the matching templates (indexed by
// Stroke.Index()). Every profile must be non-empty. Use this to install
// pipeline-calibrated templates (see the calibrate package).
func (e *Engine) SetTemplateLibrary(profiles [stroke.NumStrokes][]float64) error {
	for i, p := range profiles {
		if len(p) == 0 {
			return fmt.Errorf("pipeline: template %d is empty", i)
		}
	}
	for i, p := range profiles {
		e.library[i] = append([]float64(nil), p...)
	}
	return nil
}

// TemplateLibrary returns a copy of the active matching templates.
func (e *Engine) TemplateLibrary() [stroke.NumStrokes][]float64 {
	var out [stroke.NumStrokes][]float64
	for i, p := range e.library {
		out[i] = append([]float64(nil), p...)
	}
	return out
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Templates exposes the analytic template set (read-only).
func (e *Engine) Templates() *stroke.TemplateSet { return e.templates }

// Recognize runs the full chain over a recorded signal.
func (e *Engine) Recognize(sig *audio.Signal) (*Recognition, error) {
	if sig.Rate != e.cfg.STFT.SampleRate {
		return nil, fmt.Errorf("pipeline: signal rate %g does not match config rate %g",
			sig.Rate, e.cfg.STFT.SampleRate)
	}
	rec := &Recognition{}
	if e.KeepStages {
		rec.Stages = &Stages{}
	}

	// Stage 1: STFT with band crop.
	t0 := time.Now()
	spec, err := e.stft.Compute(sig.Samples)
	if err != nil {
		return nil, fmt.Errorf("pipeline: STFT: %w", err)
	}
	rec.Timings.STFT = time.Since(t0)
	if rec.Stages != nil {
		rec.Stages.Raw = spec.Clone()
	}

	// Stage 2: Doppler enhancement, with a cold enhancer over the whole
	// spectrogram.
	t0 = time.Now()
	if len(spec.Data) < e.cfg.StaticFrames {
		return nil, fmt.Errorf("pipeline: enhancement: spectrogram has %d frames, need at least %d static frames",
			len(spec.Data), e.cfg.StaticFrames)
	}
	var en enhancer
	binary := en.run(e, spec.Data, staticTemplate(spec.Data[:e.cfg.StaticFrames]))
	rec.BurstFrames = en.burstFrames()
	rec.Timings.Enhancement = time.Since(t0)
	if rec.Stages != nil {
		rec.Stages.Denoised = en.denoised()
		rec.Stages.Binary = binary
	}

	// Stage 3: contour extraction.
	t0 = time.Now()
	profile, rawProfile, err := e.extractProfile(binary)
	if err != nil {
		return nil, fmt.Errorf("pipeline: profile: %w", err)
	}
	rec.Timings.Profile = time.Since(t0)
	rec.Profile = profile
	if rec.Stages != nil {
		rec.Stages.RawProfile = rawProfile
	}

	// Stage 4: segmentation.
	t0 = time.Now()
	segs, err := segment.Detect(profile, e.cfg.Segment)
	if err != nil {
		return nil, fmt.Errorf("pipeline: segmentation: %w", err)
	}
	rec.Timings.Segmentation = time.Since(t0)
	rec.Segments = segs

	// Stage 5: DTW classification.
	t0 = time.Now()
	for _, sg := range segs {
		slice, err := segment.Slice(profile, sg)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		det, err := e.ClassifyProfile(slice)
		if err != nil {
			return nil, fmt.Errorf("pipeline: classify segment [%d,%d]: %w", sg.Start, sg.End, err)
		}
		det.Segment = sg
		det.Contaminated = en.burstIn(sg.Start, sg.End)
		rec.Detections = append(rec.Detections, det)
		rec.Sequence = append(rec.Sequence, det.Stroke)
	}
	rec.Timings.DTW = time.Since(t0)
	return rec, nil
}

// staticTemplate is the spectral-subtraction template: the per-bin mean
// of the initial static frames. Recognize and Stream both build theirs
// here, so the two templates are bit-identical.
func staticTemplate(frames [][]float64) []float64 {
	static := make([]float64, len(frames[0]))
	for _, f := range frames {
		for b, v := range f {
			static[b] += v
		}
	}
	for b := range static {
		static[b] /= float64(len(frames))
	}
	return static
}

// contour runs the configured contour extractor (Config.Contour) over a
// binary image under cfg. Recognize and Stream both extract through it.
func (e *Engine) contour(bin [][]uint8, cfg mvce.Config) ([]float64, error) {
	if e.cfg.Contour == ContourMaxBin {
		return mvce.ExtractMaxBin(bin, cfg)
	}
	return mvce.Extract(bin, cfg)
}

// extractProfile runs the configured contour extractor, returning the
// smoothed profile and, when stages are kept, the raw (unsmoothed) one.
func (e *Engine) extractProfile(bin [][]uint8) (smoothed, raw []float64, err error) {
	cfg := e.cfg.mvceConfig()
	if smoothed, err = e.contour(bin, cfg); err != nil {
		return nil, nil, err
	}
	if e.KeepStages {
		cfg.SmoothWindow = 1
		if raw, err = e.contour(bin, cfg); err != nil {
			return nil, nil, err
		}
	}
	return smoothed, raw, nil
}

// Softmax temperatures converting DTW distances into likelihoods,
// calibrated so a clearly better template dominates while near-ties stay
// soft. Amplitude-normalized profiles live on a unit scale, absolute ones
// on an Hz scale.
const (
	softmaxTemperatureHz   = 20.0
	softmaxTemperatureUnit = 0.06
)

// unitNormalize scales x to unit peak magnitude (no-op for all-zero
// input), returning a new slice.
func unitNormalize(x []float64) []float64 {
	peak := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	out := make([]float64, len(x))
	if peak == 0 {
		return out
	}
	for i, v := range x {
		out[i] = v / peak
	}
	return out
}

// ClassifyProfile matches one segmented profile against the template set.
func (e *Engine) ClassifyProfile(profile []float64) (Detection, error) {
	var det Detection
	temperature := softmaxTemperatureHz
	query := profile
	library := make([][]float64, stroke.NumStrokes)
	copy(library, e.library[:])
	if e.cfg.AmplitudeNormalize {
		temperature = softmaxTemperatureUnit
		query = unitNormalize(profile)
		for i, tpl := range library {
			library[i] = unitNormalize(tpl)
		}
	}
	matches, err := dtw.NearestN(query, library, stroke.NumStrokes, e.cfg.DTW)
	if err != nil {
		return det, err
	}
	for i := range det.Distances {
		det.Distances[i] = -1 // sentinel for "no alignment"
	}
	minD := matches[0].Distance
	det.Stroke = stroke.Stroke(matches[0].Index + 1)
	sum := 0.0
	for _, m := range matches {
		det.Distances[m.Index] = m.Distance
		l := softmaxExp(-(m.Distance - minD) / temperature)
		det.Likelihoods[m.Index] = l
		sum += l
	}
	if sum > 0 {
		for i := range det.Likelihoods {
			det.Likelihoods[i] /= sum
		}
	}
	return det, nil
}

// softmaxExp is a clipped exponential avoiding underflow churn.
func softmaxExp(x float64) float64 {
	if x < -40 {
		return 0
	}
	return math.Exp(x)
}
