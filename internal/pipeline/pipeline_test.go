package pipeline

import (
	"math"
	"slices"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/audio"
	"repro/internal/dsp"
	"repro/internal/geom"
	"repro/internal/stroke"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"carrier outside band", func(c *Config) { c.CarrierHz = 10000 }},
		{"zero static frames", func(c *Config) { c.StaticFrames = 0 }},
		{"negative energy threshold", func(c *Config) { c.EnergyThreshold = -1 }},
		{"even gaussian", func(c *Config) { c.GaussianKernel = 4 }},
		{"binarize out of range", func(c *Config) { c.BinarizeThreshold = 1.5 }},
		{"bad contour", func(c *Config) { c.Contour = ContourMethod(9) }},
		{"bad segment", func(c *Config) { c.Segment.StartThreshold = -1 }},
		{"bad sound speed", func(c *Config) { c.SoundSpeed = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
			if _, err := NewEngine(cfg); err == nil {
				t.Error("NewEngine accepted invalid config")
			}
		})
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.binWidthHz(); math.Abs(got-44100.0/8192) > 1e-9 {
		t.Errorf("bin width = %g", got)
	}
	if got := cfg.FrameRate(); math.Abs(got-44100.0/1024) > 1e-9 {
		t.Errorf("frame rate = %g", got)
	}
	lb := cfg.carrierLocalBin()
	if lb < 0 || lb > float64(cfg.STFT.HighBin-cfg.STFT.LowBin) {
		t.Errorf("carrier local bin %g outside band", lb)
	}
}

func TestRecognizeRejectsWrongRate(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sig := &audio.Signal{Samples: make([]float64, 48000), Rate: 48000}
	if _, err := eng.Recognize(sig); err == nil {
		t.Error("wrong sample rate accepted")
	}
}

func TestRecognizeSilence(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := &acoustic.Scene{
		Device:   acoustic.Mate9(),
		Env:      acoustic.Environment{},
		Duration: 1.0,
		Seed:     1,
	}
	sig, err := sc.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Recognize(sig)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Segments) != 0 {
		t.Errorf("silence produced segments: %v", rec.Segments)
	}
	if rec.Timings.Total() <= 0 {
		t.Error("timings not recorded")
	}
}

// synthesizeStroke renders one canonical stroke in a quiet scene.
func synthesizeStroke(t *testing.T, st stroke.Stroke) *audio.Signal {
	t.Helper()
	tr, err := stroke.Shape(st, stroke.ShapeParams{})
	if err != nil {
		t.Fatal(err)
	}
	start, err := stroke.StartPoint(st, stroke.ShapeParams{})
	if err != nil {
		t.Fatal(err)
	}
	end, err := stroke.EndPoint(st, stroke.ShapeParams{})
	if err != nil {
		t.Fatal(err)
	}
	finger, err := geom.NewCompositeTrajectory(
		&geom.StaticTrajectory{Pos: start, Dur: 0.4},
		tr,
		&geom.StaticTrajectory{Pos: end, Dur: 0.45},
	)
	if err != nil {
		t.Fatal(err)
	}
	sc := &acoustic.Scene{
		Device:     acoustic.Mate9(),
		Env:        acoustic.StandardEnvironment(acoustic.MeetingRoom),
		Reflectors: acoustic.HandReflectors(finger),
		Duration:   finger.Duration(),
		Seed:       uint64(st) * 7,
	}
	sig, err := sc.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func TestRecognizeCanonicalStrokesEndToEnd(t *testing.T) {
	// The integration test of the whole chain: every canonical stroke,
	// synthesized through the physics simulator, must come back as
	// exactly one detection of the right class.
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stroke.AllStrokes() {
		rec, err := eng.Recognize(synthesizeStroke(t, st))
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if len(rec.Detections) != 1 {
			t.Errorf("%v: %d detections, want 1", st, len(rec.Detections))
			continue
		}
		if got := rec.Detections[0].Stroke; got != st {
			t.Errorf("%v recognized as %v (distances %v)", st, got, rec.Detections[0].Distances)
		}
	}
}

func TestRecognizeKeepStages(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng.KeepStages = true
	rec, err := eng.Recognize(synthesizeStroke(t, stroke.S2))
	if err != nil {
		t.Fatal(err)
	}
	st := rec.Stages
	if st == nil {
		t.Fatal("stages not kept")
	}
	if st.Raw == nil || st.Raw.Frames() == 0 {
		t.Error("raw spectrogram missing")
	}
	if len(st.Denoised) == 0 || len(st.Binary) == 0 || len(st.RawProfile) == 0 {
		t.Error("intermediate stages missing")
	}
	if len(st.Binary) != len(rec.Profile) {
		t.Errorf("binary frames %d != profile frames %d", len(st.Binary), len(rec.Profile))
	}
}

// TestRawProfileSmoothsToProfile pins that Stages.RawProfile comes from
// the configured contour extractor: smoothed with the profile's moving
// average it reproduces Profile bit for bit, under both contours. The
// second-writer scene gives the max-bin extractor frames where it and
// MVCE disagree.
func TestRawProfileSmoothsToProfile(t *testing.T) {
	sig := synthesizeSequenceIn(t, stroke.Sequence{stroke.S2, stroke.S3, stroke.S1},
		acoustic.StandardEnvironment(acoustic.SecondWriter))
	for _, contour := range []ContourMethod{ContourMVCE, ContourMaxBin} {
		cfg := DefaultConfig()
		cfg.Contour = contour
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.KeepStages = true
		rec, err := eng.Recognize(sig)
		if err != nil {
			t.Fatal(err)
		}
		smoothed, err := dsp.MovingAverage(rec.Stages.RawProfile, cfg.mvceConfig().SmoothWindow)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(smoothed, rec.Profile) {
			t.Errorf("contour %d: smoothed RawProfile differs from Profile", contour)
		}
	}
}

func TestDetectionLikelihoodsNormalized(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Recognize(synthesizeStroke(t, stroke.S4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Detections) == 0 {
		t.Fatal("no detections")
	}
	sum := 0.0
	maxIdx := 0
	det := rec.Detections[0]
	for i, l := range det.Likelihoods {
		if l < 0 || l > 1 {
			t.Errorf("likelihood[%d] = %g", i, l)
		}
		sum += l
		if l > det.Likelihoods[maxIdx] {
			maxIdx = i
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("likelihoods sum to %g", sum)
	}
	if stroke.Stroke(maxIdx+1) != det.Stroke {
		t.Error("max likelihood does not match chosen stroke")
	}
}

func TestSetTemplateLibrary(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var empty [stroke.NumStrokes][]float64
	if err := eng.SetTemplateLibrary(empty); err == nil {
		t.Error("empty templates accepted")
	}
	lib := eng.TemplateLibrary()
	// Mutating the returned copy must not affect the engine.
	lib[0][0] = 12345
	if eng.TemplateLibrary()[0][0] == 12345 {
		t.Error("TemplateLibrary returned aliased storage")
	}
	var custom [stroke.NumStrokes][]float64
	for i := range custom {
		custom[i] = []float64{1, 2, 3}
	}
	if err := eng.SetTemplateLibrary(custom); err != nil {
		t.Fatal(err)
	}
	got := eng.TemplateLibrary()
	if got[3][1] != 2 {
		t.Error("custom templates not installed")
	}
}

func TestClassifyProfileDirect(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Feed a template directly: it must classify as itself with zero
	// distance.
	tpl := eng.TemplateLibrary()[stroke.S3.Index()]
	det, err := eng.ClassifyProfile(tpl)
	if err != nil {
		t.Fatal(err)
	}
	if det.Stroke != stroke.S3 {
		t.Errorf("template classified as %v", det.Stroke)
	}
	if det.Distances[stroke.S3.Index()] != 0 {
		t.Errorf("self-distance = %g", det.Distances[stroke.S3.Index()])
	}
}

func TestContourMaxBinConfigWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Contour = ContourMaxBin
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Recognize(synthesizeStroke(t, stroke.S2)); err != nil {
		t.Fatalf("max-bin contour failed: %v", err)
	}
}

func TestUnitNormalize(t *testing.T) {
	out := unitNormalize([]float64{2, -4, 1})
	if out[1] != -1 || out[0] != 0.5 {
		t.Errorf("unitNormalize = %v", out)
	}
	zeros := unitNormalize([]float64{0, 0})
	if zeros[0] != 0 || zeros[1] != 0 {
		t.Error("all-zero input should stay zero")
	}
}

func TestStageTimingsTotal(t *testing.T) {
	tm := StageTimings{STFT: 1, Enhancement: 2, Profile: 3, Segmentation: 4, DTW: 5}
	if tm.Total() != 15 {
		t.Errorf("Total = %d", tm.Total())
	}
}
