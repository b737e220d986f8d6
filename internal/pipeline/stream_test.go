package pipeline

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/audio"
	"repro/internal/geom"
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

// TestStreamMatchesBatch streams audio in awkward chunk sizes and checks
// the detections against Recognize on the whole recording, under the
// default MVCE contour and under ContourMaxBin, so both paths honour the
// configured extractor. The stream's subtraction template must equal the
// batch template of the same spectrogram bit for bit, also with a
// longer static lead-in.
func TestStreamMatchesBatch(t *testing.T) {
	seq := stroke.Sequence{stroke.S2, stroke.S3, stroke.S1}
	maxBin := DefaultConfig()
	maxBin.Contour = ContourMaxBin
	static9 := DefaultConfig()
	static9.StaticFrames = 9
	meeting := acoustic.StandardEnvironment(acoustic.MeetingRoom)
	for _, c := range []struct {
		name string
		cfg  Config
		env  acoustic.Environment
	}{
		{"mvce", DefaultConfig(), meeting},
		{"maxbin_second_writer", maxBin, acoustic.StandardEnvironment(acoustic.SecondWriter)},
		{"static9", static9, meeting},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, err := NewEngine(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sig := synthesizeSequenceIn(t, seq, c.env)

			// Batch reference.
			batch, err := eng.Recognize(sig)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(batch.Sequence, seq) {
				t.Fatalf("batch recognized %v, want %v; test premise broken", batch.Sequence, seq)
			}

			// Stream the same audio in awkward chunk sizes.
			stream := NewStream(eng)
			var got []Detection
			for start := 0; start < len(sig.Samples); start += 3001 {
				end := min(start+3001, len(sig.Samples))
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

			spec, err := eng.stft.Compute(sig.Samples)
			if err != nil {
				t.Fatal(err)
			}
			if want := staticTemplate(spec.Data[:c.cfg.StaticFrames]); !slices.Equal(stream.static, want) {
				t.Error("stream template differs from the batch template of the same spectrogram")
			}
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
		})
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

// TestStreamSilenceWindowBounded pins that a session which never emits
// a stroke still compacts its window: two minutes of a steady carrier
// over faint noise keep the window within MaxWindow plus one feed's
// columns.
func TestStreamSilenceWindowBounded(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := NewStream(eng)
	stream.MaxWindow = 256
	const feed = 4410
	cfg := eng.cfg.STFT
	perFeed := feed/cfg.HopSize + 1
	rng := rand.New(rand.NewSource(1))
	chunk := make([]float64, feed)
	n := 0
	for fed := 0; fed < 120*int(cfg.SampleRate); fed += feed {
		for i := range chunk {
			chunk[i] = 0.3*math.Sin(2*math.Pi*eng.cfg.CarrierHz*float64(n)/cfg.SampleRate) + 1e-3*rng.NormFloat64()
			n++
		}
		dets, err := stream.Feed(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if len(dets) > 0 {
			t.Fatalf("silence emitted %d detections at frame %d; test premise broken", len(dets), stream.FramesSeen())
		}
		if got := len(stream.columns); got > stream.MaxWindow+perFeed {
			t.Fatalf("window holds %d columns after %d frames, want at most %d",
				got, stream.FramesSeen(), stream.MaxWindow+perFeed)
		}
	}
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
