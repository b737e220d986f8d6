// Package calibrate derives pipeline-calibrated stroke templates: instead
// of matching against the purely analytic Doppler profiles, each canonical
// stroke is synthesized in a noise-free reference scene and pushed through
// the full recognition front-end, so the stored template carries the same
// systematic signatures (spectral-leakage widening, Gaussian-blur bias,
// MVCE extreme-picking) the live profiles will.
//
// This remains training-free in the paper's sense: templates derive from
// the gesture definitions alone — no user ever records anything — but they
// are expressed in the feature space the pipeline actually observes.
package calibrate

import (
	"fmt"

	"repro/internal/acoustic"
	"repro/internal/audio"
	"repro/internal/geom"
	"repro/internal/pipeline"
	"repro/internal/segment"
	"repro/internal/stroke"
)

// leadDur/tailDur bracket the canonical stroke in the reference scene so
// spectral subtraction has static frames and the Doppler blob's temporal
// smear is fully captured.
const (
	leadDur = 0.40
	tailDur = 0.45
)

// NewCalibratedEngine builds an engine and installs pipeline-calibrated
// templates in one step.
func NewCalibratedEngine(cfg pipeline.Config) (*pipeline.Engine, error) {
	eng, err := pipeline.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := Install(eng, cfg, nil); err != nil {
		return nil, err
	}
	return eng, nil
}

// Install synthesizes each canonical stroke in a clean reference scene at
// base's sample rate and physical carrier, passes it through frontend
// (nil when eng consumes base-rate audio directly, a decimator's Process
// otherwise), runs eng's recognition front-end over the result and
// installs the extracted profiles as eng's template library. Profiles do
// not depend on the library eng already holds. The template interval is
// taken from the known ground-truth stroke timing (template generation
// defines the gesture, so it knows exactly when the stroke runs) with the
// same low-speed trimming the live segmenter applies at stroke ends.
func Install(eng *pipeline.Engine, base pipeline.Config, frontend func(*audio.Signal) (*audio.Signal, error)) error {
	// An idealized device: base's rate and carrier with no noise
	// sources and no quantization.
	dev := acoustic.DeviceProfile{
		Name:           "reference",
		SampleRate:     base.STFT.SampleRate,
		CarrierHz:      base.PhysicalCarrier(),
		TxAmplitude:    0.9,
		DirectPathGain: 0.30,
		ReflectionGain: 1.0,
	}
	cfg := eng.Config()
	frameRate := cfg.FrameRate()
	floor := cfg.Segment.EndSpeedFloor
	if floor <= 0 {
		floor = 16
	}
	var lib [stroke.NumStrokes][]float64
	for _, st := range stroke.AllStrokes() {
		tr, err := stroke.Shape(st, stroke.ShapeParams{})
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		start, err := stroke.StartPoint(st, stroke.ShapeParams{})
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		end, err := stroke.EndPoint(st, stroke.ShapeParams{})
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		lead := &geom.StaticTrajectory{Pos: start, Dur: leadDur}
		tail := &geom.StaticTrajectory{Pos: end, Dur: tailDur}
		finger, err := geom.NewCompositeTrajectory(lead, tr, tail)
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		scene := &acoustic.Scene{
			Device:     dev,
			Reflectors: acoustic.HandReflectors(finger),
			Duration:   finger.Duration(),
			Seed:       1,
		}
		sig, err := scene.Synthesize()
		if err != nil {
			return fmt.Errorf("calibrate: synthesizing %v: %w", st, err)
		}
		if frontend != nil {
			if sig, err = frontend(sig); err != nil {
				return fmt.Errorf("calibrate: front-end for %v: %w", st, err)
			}
		}
		rec, err := eng.Recognize(sig)
		if err != nil {
			return fmt.Errorf("calibrate: recognizing %v: %w", st, err)
		}
		// Ground-truth frame bounds with margin for the pipeline's
		// temporal smear: an 8192-sample window spans 8 hops, so blob
		// energy appears up to ~8 frames before the stroke's sample
		// index; filtering adds a little more on each side.
		lo := int(leadDur*frameRate) - 9
		hi := int((leadDur+tr.Duration())*frameRate) + 9
		if lo < 0 {
			lo = 0
		}
		if hi > len(rec.Profile)-1 {
			hi = len(rec.Profile) - 1
		}
		slice, err := segment.Slice(rec.Profile, segment.Segment{Start: lo, End: hi})
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		tpl := trimQuiet(slice, floor)
		if len(tpl) < 4 {
			return fmt.Errorf("calibrate: canonical %v yielded a %d-frame template; pipeline cannot see its own gesture", st, len(tpl))
		}
		lib[st.Index()] = tpl
	}
	return eng.SetTemplateLibrary(lib)
}

// trimQuiet removes leading and trailing frames whose |shift| is under the
// floor, mirroring how live segments begin and end near zero speed. One
// quiet frame is kept on each side so templates anchor at rest.
func trimQuiet(p []float64, floor float64) []float64 {
	lo, hi := 0, len(p)-1
	for lo < hi && abs(p[lo]) < floor {
		lo++
	}
	for hi > lo && abs(p[hi]) < floor {
		hi--
	}
	if lo > 0 {
		lo--
	}
	if hi < len(p)-1 {
		hi++
	}
	return append([]float64(nil), p[lo:hi+1]...)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
