package pipeline

import (
	"errors"
	"math"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/audio"
	"repro/internal/geom"
	"repro/internal/mvce"
	"repro/internal/stroke"
)

// synthesizeSequence renders a multi-stroke writing in a quiet scene with
// rests and gentle repositions between strokes. testing.TB so the fuzz
// harness can seed its corpus with the same audio.
func synthesizeSequence(t testing.TB, seq stroke.Sequence) *audio.Signal {
	t.Helper()
	return synthesizeSequenceIn(t, seq, acoustic.StandardEnvironment(acoustic.MeetingRoom))
}

// synthesizeSequenceIn is synthesizeSequence in the given environment.
func synthesizeSequenceIn(t testing.TB, seq stroke.Sequence, env acoustic.Environment) *audio.Signal {
	t.Helper()
	var parts []geom.Trajectory
	prev, err := stroke.StartPoint(seq[0], stroke.ShapeParams{})
	if err != nil {
		t.Fatal(err)
	}
	parts = append(parts, &geom.StaticTrajectory{Pos: prev, Dur: 0.4})
	for i, st := range seq {
		start, err := stroke.StartPoint(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			parts = append(parts, &geom.StaticTrajectory{Pos: prev, Dur: 0.35})
			rep, err := geom.NewPolyTrajectory([]geom.Waypoint{
				{T: 0, Pos: prev}, {T: 1.0, Pos: start},
			})
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, rep)
		}
		tr, err := stroke.Shape(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, tr)
		prev, err = stroke.EndPoint(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
	}
	parts = append(parts, &geom.StaticTrajectory{Pos: prev, Dur: 0.5})
	finger, err := geom.NewCompositeTrajectory(parts...)
	if err != nil {
		t.Fatal(err)
	}
	sc := &acoustic.Scene{
		Device:     acoustic.Mate9(),
		Env:        env,
		Reflectors: acoustic.HandReflectors(finger),
		Duration:   finger.Duration(),
		Seed:       9,
	}
	sig, err := sc.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

func TestStreamMatchesBatch(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := stroke.Sequence{stroke.S2, stroke.S3, stroke.S1}
	sig := synthesizeSequence(t, seq)

	// Batch reference.
	batch, err := eng.Recognize(sig)
	if err != nil {
		t.Fatal(err)
	}

	// Stream the same audio in awkward chunk sizes.
	stream := NewStream(eng)
	var got []Detection
	for start := 0; start < len(sig.Samples); start += 3001 {
		end := start + 3001
		if end > len(sig.Samples) {
			end = len(sig.Samples)
		}
		dets, err := stream.Feed(sig.Samples[start:end])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dets...)
	}
	tail, err := stream.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, tail...)

	if len(got) != len(batch.Detections) {
		t.Fatalf("stream emitted %d detections, batch %d", len(got), len(batch.Detections))
	}
	for i, d := range got {
		if d.Stroke != batch.Detections[i].Stroke {
			t.Errorf("detection %d: stream %v, batch %v", i, d.Stroke, batch.Detections[i].Stroke)
		}
		// Absolute frame indices should agree within the smear margin.
		if diff := d.Segment.Start - batch.Detections[i].Segment.Start; diff < -4 || diff > 4 {
			t.Errorf("detection %d start %d vs batch %d", i, d.Segment.Start, batch.Detections[i].Segment.Start)
		}
	}
}

func TestStreamEmitsIncrementally(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := stroke.Sequence{stroke.S2, stroke.S3}
	sig := synthesizeSequence(t, seq)
	stream := NewStream(eng)

	// Feed only the first ~60 % of the audio: the first stroke must
	// already be emitted before the recording ends.
	cut := len(sig.Samples) * 6 / 10
	dets, err := stream.Feed(sig.Samples[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("no detection emitted mid-stream")
	}
	if dets[0].Stroke != stroke.S2 {
		t.Errorf("first detection %v, want S2", dets[0].Stroke)
	}
	// Feeding the rest completes the second stroke; nothing is emitted
	// twice.
	rest, err := stream.Feed(sig.Samples[cut:])
	if err != nil {
		t.Fatal(err)
	}
	tail, err := stream.Flush()
	if err != nil {
		t.Fatal(err)
	}
	total := append(append([]Detection(nil), dets...), rest...)
	total = append(total, tail...)
	if len(total) != 2 {
		t.Fatalf("emitted %d detections overall, want 2 (%v)", len(total), total)
	}
	if total[1].Stroke != stroke.S3 {
		t.Errorf("second detection %v, want S3", total[1].Stroke)
	}
}

func TestStreamWindowCompaction(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(eng)
	stream.MaxWindow = 64
	sig := synthesizeSequence(t, stroke.Sequence{stroke.S2, stroke.S1, stroke.S3})
	var got []Detection
	for start := 0; start < len(sig.Samples); start += 8192 {
		end := start + 8192
		if end > len(sig.Samples) {
			end = len(sig.Samples)
		}
		dets, err := stream.Feed(sig.Samples[start:end])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dets...)
	}
	tail, err := stream.Flush()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, tail...)
	if len(got) != 3 {
		t.Fatalf("compacted stream emitted %d detections, want 3", len(got))
	}
	want := stroke.Sequence{stroke.S2, stroke.S1, stroke.S3}
	for i, d := range got {
		if d.Stroke != want[i] {
			t.Errorf("detection %d = %v, want %v", i, d.Stroke, want[i])
		}
	}
	if stream.FramesSeen() < 200 {
		t.Errorf("FramesSeen = %d unexpectedly small", stream.FramesSeen())
	}
}

func TestStreamSilenceEmitsNothing(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sc := &acoustic.Scene{
		Device:   acoustic.Mate9(),
		Env:      acoustic.StandardEnvironment(acoustic.MeetingRoom),
		Duration: 2.0,
		Seed:     3,
	}
	sig, err := sc.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(eng)
	dets, err := stream.Feed(sig.Samples)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := stream.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(dets)+len(tail) != 0 {
		t.Errorf("silence produced %d detections", len(dets)+len(tail))
	}
}

func TestStreamAdaptiveStatic(t *testing.T) {
	// After the hand comes to rest in a NEW position (a static echo the
	// initial template has never seen), the fixed-template stream keeps a
	// residual foreground there forever; the adaptive stream absorbs it.
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Scene: rest at A (template learned) → stroke → long rest at B.
	start, err := stroke.StartPoint(stroke.S2, stroke.ShapeParams{})
	if err != nil {
		t.Fatal(err)
	}
	end, err := stroke.EndPoint(stroke.S2, stroke.ShapeParams{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := stroke.Shape(stroke.S2, stroke.ShapeParams{})
	if err != nil {
		t.Fatal(err)
	}
	finger, err := geom.NewCompositeTrajectory(
		&geom.StaticTrajectory{Pos: start, Dur: 0.4},
		tr,
		&geom.StaticTrajectory{Pos: end, Dur: 6.0}, // long rest at B
	)
	if err != nil {
		t.Fatal(err)
	}
	sc := &acoustic.Scene{
		Device:     acoustic.Mate9(),
		Env:        acoustic.StandardEnvironment(acoustic.MeetingRoom),
		Reflectors: acoustic.HandReflectors(finger),
		Duration:   finger.Duration(),
		Seed:       5,
	}
	sig, err := sc.Synthesize()
	if err != nil {
		t.Fatal(err)
	}

	tailBias := func(adaptive bool) float64 {
		stream := NewStream(eng)
		stream.AdaptiveStatic = adaptive
		for off := 0; off < len(sig.Samples); off += 4410 {
			endIdx := min(off+4410, len(sig.Samples))
			if _, err := stream.Feed(sig.Samples[off:endIdx]); err != nil {
				t.Fatal(err)
			}
		}
		// Inspect the final window's profile tail directly.
		var cold enhancer
		bin := cold.run(eng, stream.columns, stream.static)
		profile, err := mvceExtractForTest(eng, bin)
		if err != nil {
			t.Fatal(err)
		}
		// Mean |shift| over the last 40 frames (pure rest at B).
		sum := 0.0
		n := 0
		for i := len(profile) - 40; i < len(profile); i++ {
			if i >= 0 {
				sum += math.Abs(profile[i])
				n++
			}
		}
		return sum / float64(n)
	}

	fixed := tailBias(false)
	adaptive := tailBias(true)
	t.Logf("rest-at-B residual: fixed %.1f Hz, adaptive %.1f Hz", fixed, adaptive)
	if adaptive > fixed {
		t.Errorf("adaptive template did not reduce residual: %.1f vs %.1f", adaptive, fixed)
	}
	if adaptive > 6 {
		t.Errorf("adaptive residual %.1f Hz still large", adaptive)
	}

	// The adaptive template must actually have moved away from the
	// initial one (the hand's static echo changed from A to B).
	mkStatic := func(adapt bool) []float64 {
		stream := NewStream(eng)
		stream.AdaptiveStatic = adapt
		for off := 0; off < len(sig.Samples); off += 4410 {
			endIdx := min(off+4410, len(sig.Samples))
			if _, err := stream.Feed(sig.Samples[off:endIdx]); err != nil {
				t.Fatal(err)
			}
		}
		return append([]float64(nil), stream.static...)
	}
	fixedTpl := mkStatic(false)
	adaptTpl := mkStatic(true)
	diff := 0.0
	for b := range fixedTpl {
		diff += math.Abs(fixedTpl[b] - adaptTpl[b])
	}
	if diff == 0 {
		t.Error("adaptive template never updated")
	}
}

// mvceExtractForTest exposes contour extraction on a binary window.
func mvceExtractForTest(eng *Engine, bin [][]uint8) ([]float64, error) {
	return mvce.Extract(bin, eng.cfg.mvceConfig())
}

func TestStreamResetMatchesFresh(t *testing.T) {
	// A pooled stream is Reset between recordings; after Reset it must be
	// indistinguishable from a freshly constructed stream on the canonical
	// six-stroke alphabet.
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := stroke.Sequence{stroke.S1, stroke.S2, stroke.S3, stroke.S4, stroke.S5, stroke.S6}
	sig := synthesizeSequence(t, seq)

	run := func(stream *Stream) []Detection {
		var got []Detection
		for start := 0; start < len(sig.Samples); start += 4096 {
			end := min(start+4096, len(sig.Samples))
			dets, err := stream.Feed(sig.Samples[start:end])
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, dets...)
		}
		tail, err := stream.Flush()
		if err != nil {
			t.Fatal(err)
		}
		return append(got, tail...)
	}

	fresh := run(NewStream(eng))

	// Dirty a stream with part of the same audio, then Reset and rerun.
	reused := NewStream(eng)
	if _, err := reused.Feed(sig.Samples[:len(sig.Samples)/3]); err != nil {
		t.Fatal(err)
	}
	reused.Reset()
	if reused.FramesSeen() != 0 {
		t.Fatalf("FramesSeen = %d after Reset, want 0", reused.FramesSeen())
	}
	again := run(reused)

	if len(fresh) != len(again) {
		t.Fatalf("fresh stream emitted %d detections, reset stream %d", len(fresh), len(again))
	}
	for i := range fresh {
		if fresh[i].Stroke != again[i].Stroke {
			t.Errorf("detection %d: fresh %v, reset %v", i, fresh[i].Stroke, again[i].Stroke)
		}
		if fresh[i].Segment != again[i].Segment {
			t.Errorf("detection %d: fresh segment %+v, reset segment %+v",
				i, fresh[i].Segment, again[i].Segment)
		}
	}
}

func TestStreamFeedOversizedChunk(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(eng)
	stream.MaxChunk = 10000

	// Oversized in one call: typed error, no state change.
	if _, err := stream.Feed(make([]float64, 10001)); !errors.Is(err, ErrOversizedChunk) {
		t.Fatalf("Feed(10001) error = %v, want ErrOversizedChunk", err)
	}
	if stream.FramesSeen() != 0 {
		t.Errorf("rejected feed still produced %d frames", stream.FramesSeen())
	}

	// The cap applies to buffered residue, not just the chunk: two calls
	// that together exceed it must also fail.
	if _, err := stream.Feed(make([]float64, 6000)); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Feed(make([]float64, 9000)); !errors.Is(err, ErrOversizedChunk) {
		t.Fatalf("cumulative overflow error = %v, want ErrOversizedChunk", err)
	}

	// Within the cap everything keeps working.
	if _, err := stream.Feed(make([]float64, 1000)); err != nil {
		t.Fatalf("in-cap feed failed: %v", err)
	}
}

func TestStreamDefaultChunkCap(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(eng)
	if _, err := stream.Feed(make([]float64, DefaultMaxChunk+1)); !errors.Is(err, ErrOversizedChunk) {
		t.Fatalf("default cap error = %v, want ErrOversizedChunk", err)
	}
}
