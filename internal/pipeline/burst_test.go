package pipeline

import (
	"testing"

	"repro/internal/acoustic"
	"repro/internal/audio"
	"repro/internal/geom"
	"repro/internal/stroke"
)

func TestSuppressBurstsDisabled(t *testing.T) {
	m := [][]float64{{1, 1, 1}, {1, 1, 1}}
	if frames := suppressBursts(m, BurstConfig{}); len(frames) != 0 {
		t.Errorf("disabled suppression flagged %d frames", len(frames))
	}
	if m[0][0] != 1 {
		t.Error("disabled suppression modified data")
	}
}

func TestSuppressBurstsInterpolates(t *testing.T) {
	// Frames 0 and 4 are clean (one narrow blob); frames 1-3 are a burst
	// lighting the whole band.
	mk := func() [][]float64 {
		m := make([][]float64, 5)
		for f := range m {
			m[f] = make([]float64, 10)
		}
		m[0][3] = 10
		m[4][3] = 20
		for f := 1; f <= 3; f++ {
			for b := range m[f] {
				m[f][b] = 50
			}
		}
		return m
	}
	m := mk()
	frames := suppressBursts(m, DefaultBurstConfig())
	if len(frames) != 3 {
		t.Fatalf("flagged %d frames, want 3", len(frames))
	}
	// Interpolation between 10 (frame 0) and 20 (frame 4) at bin 3.
	if m[2][3] != 15 {
		t.Errorf("interpolated center = %g, want 15", m[2][3])
	}
	// Other bins interpolate between zeros.
	if m[2][7] != 0 {
		t.Errorf("off-blob bin = %g, want 0", m[2][7])
	}
}

func TestSuppressBurstsLeavesLongEventsAlone(t *testing.T) {
	// A wideband event longer than MaxFrames (16) must survive.
	m := make([][]float64, 20)
	for f := range m {
		m[f] = make([]float64, 10)
		for b := range m[f] {
			m[f][b] = 5
		}
	}
	cfg := DefaultBurstConfig()
	// Long events are still flagged (for contamination marking) but not
	// repaired.
	frames := suppressBursts(m, cfg)
	if len(frames) == 0 {
		t.Error("long event not flagged")
	}
	if m[6][4] != 5 {
		t.Error("long event content altered")
	}
}

func TestSuppressBurstsNarrowBlobsUntouched(t *testing.T) {
	// A stroke-like narrow blob never triggers suppression.
	m := make([][]float64, 8)
	for f := range m {
		m[f] = make([]float64, 20)
		for b := 4; b < 8; b++ {
			m[f][b] = 30
		}
	}
	if frames := suppressBursts(m, DefaultBurstConfig()); len(frames) != 0 {
		t.Errorf("narrow blob flagged (%d frames)", len(frames))
	}
}

// TestBurstSuppressionEndToEnd verifies §VII-B: with heavy knock-like
// bursts injected into the scene, suppression recovers accuracy the bare
// pipeline loses.
func TestBurstSuppressionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("audio-heavy")
	}
	// A harsh environment: frequent loud wideband bursts.
	env := acoustic.StandardEnvironment(acoustic.MeetingRoom)
	env.BurstRate = 4.0
	env.BurstAmp = 0.9

	strokeSignal := func(st stroke.Stroke, seed uint64) *audio.Signal {
		start, err := stroke.StartPoint(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
		end, err := stroke.EndPoint(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := stroke.Shape(st, stroke.ShapeParams{})
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
			Env:        env,
			Reflectors: acoustic.HandReflectors(finger),
			Duration:   finger.Duration(),
			Seed:       seed,
		}
		sig, err := sc.Synthesize()
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}

	// score counts silent misrecognitions (the harmful outcome): a trial
	// is safe when the single detection is correct, or when the system
	// flags the entry as burst-contaminated so the UI requests a rewrite
	// instead of accepting a wrong stroke.
	score := func(burst BurstConfig) (correct, flagged, silentWrong int) {
		cfg := DefaultConfig()
		cfg.Burst = burst
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stroke.AllStrokes() {
			for r := uint64(0); r < 3; r++ {
				out, err := eng.Recognize(strokeSignal(st, uint64(st)*10+r))
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case len(out.Detections) == 1 && out.Detections[0].Stroke == st &&
					!out.Detections[0].Contaminated:
					correct++
				case anyContaminated(out.Detections):
					flagged++
				default:
					silentWrong++
				}
			}
		}
		return correct, flagged, silentWrong
	}

	bareOK, _, bareWrong := score(BurstConfig{})
	okS, flaggedS, wrongS := score(DefaultBurstConfig())
	t.Logf("bursty scene (18 trials): bare %d correct / %d silent-wrong; "+
		"suppressed+flagged %d correct / %d flagged-for-rewrite / %d silent-wrong",
		bareOK, bareWrong, okS, flaggedS, wrongS)
	// §VII-B's goal: stop silently accepting corrupted strokes.
	if wrongS > bareWrong {
		t.Errorf("suppression increased silent errors: %d vs %d", wrongS, bareWrong)
	}
	if wrongS > 5 {
		t.Errorf("silent-wrong rate %d/18 with suppression — flagging not effective", wrongS)
	}
}

func anyContaminated(dets []Detection) bool {
	for _, d := range dets {
		if d.Contaminated {
			return true
		}
	}
	return false
}

// suppressBursts is the whole-matrix reference of the enhancer's burst
// repair: it zeroes-and-interpolates burst-contaminated frames of the
// thresholded magnitude matrix in place and returns the indices of the
// suspect frames (repaired or not), which flag detections whose segments
// were contaminated — the "discard signal segments containing bursting
// noises" half of §VII-B.
func suppressBursts(m [][]float64, cfg BurstConfig) []int {
	if !cfg.Enabled || len(m) == 0 {
		return nil
	}
	occTh, maxRun := cfg.limits()
	cols := len(m[0])
	suspect := make([]bool, len(m))
	for f, row := range m {
		active := 0
		for _, v := range row {
			if v > 0 {
				active++
			}
		}
		suspect[f] = float64(active) >= occTh*float64(cols)
	}
	var frames []int
	for f := 0; f < len(m); {
		if !suspect[f] {
			f++
			continue
		}
		run := f
		for run < len(m) && suspect[run] {
			run++
		}
		for k := f; k < run; k++ {
			// ew:allow hotprop: grows only while a burst is present — nil in
			// the common clean-window case, bounded by the window length
			// otherwise; preallocating would charge every flush for the
			// rare contaminated one.
			frames = append(frames, k)
		}
		if run-f <= maxRun {
			lo, hi := f-1, run // clean neighbors
			for k := f; k < run; k++ {
				for b := 0; b < cols; b++ {
					var left, right float64
					if lo >= 0 {
						left = m[lo][b]
					}
					if hi < len(m) {
						right = m[hi][b]
					}
					// Linear interpolation across the burst gap.
					span := float64(hi - lo)
					t := float64(k-lo) / span
					m[k][b] = left*(1-t) + right*t
				}
			}
		}
		f = run
	}
	return frames
}
