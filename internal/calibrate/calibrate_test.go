package calibrate

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/stroke"
)

// templates returns the library NewCalibratedEngine installs for cfg.
func templates(t *testing.T, cfg pipeline.Config) [stroke.NumStrokes][]float64 {
	t.Helper()
	eng, err := NewCalibratedEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng.TemplateLibrary()
}

func TestTemplatesCoverAllStrokes(t *testing.T) {
	tpls := templates(t, pipeline.DefaultConfig())
	for i, tpl := range tpls {
		if len(tpl) < 8 {
			t.Errorf("template %d has only %d frames", i+1, len(tpl))
		}
	}
	// Calibrated templates must start and end near rest (the trim
	// invariant).
	for i, tpl := range tpls {
		if abs(tpl[0]) > 20 || abs(tpl[len(tpl)-1]) > 20 {
			t.Errorf("template %d endpoints %g, %g not near rest", i+1, tpl[0], tpl[len(tpl)-1])
		}
	}
}

func TestTemplatesCarryPipelineBias(t *testing.T) {
	// The point of calibration: calibrated templates should differ from
	// the analytic ones (blob broadening inflates extremes).
	cfg := pipeline.DefaultConfig()
	tpls := templates(t, cfg)
	eng, err := pipeline.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analytic := eng.TemplateLibrary()
	differs := false
	for i := range tpls {
		peakC, peakA := 0.0, 0.0
		for _, v := range tpls[i] {
			if a := abs(v); a > peakC {
				peakC = a
			}
		}
		for _, v := range analytic[i] {
			if a := abs(v); a > peakA {
				peakA = a
			}
		}
		if peakC > peakA*1.02 {
			differs = true
		}
	}
	if !differs {
		t.Error("calibrated templates identical to analytic ones — calibration is a no-op")
	}
}

func TestNewCalibratedEngineClassifiesOwnTemplates(t *testing.T) {
	eng, err := NewCalibratedEngine(pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lib := eng.TemplateLibrary()
	for _, st := range stroke.AllStrokes() {
		det, err := eng.ClassifyProfile(lib[st.Index()])
		if err != nil {
			t.Fatal(err)
		}
		if det.Stroke != st {
			t.Errorf("calibrated template %v classified as %v", st, det.Stroke)
		}
	}
}

func TestTemplatesRejectInvalidConfig(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.CarrierHz = 100
	if _, err := NewCalibratedEngine(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestTrimQuiet(t *testing.T) {
	p := []float64{1, 2, 50, 80, 50, 3, 2, 1}
	out := trimQuiet(p, 16)
	// Keeps one quiet frame each side: [2, 50, 80, 50, 3].
	if len(out) != 5 || out[0] != 2 || out[len(out)-1] != 3 {
		t.Errorf("trimQuiet = %v", out)
	}
	// All-quiet input collapses to at most the two guard frames.
	quiet := trimQuiet([]float64{1, 1, 1, 1}, 16)
	if len(quiet) > 3 {
		t.Errorf("all-quiet trim = %v", quiet)
	}
}
