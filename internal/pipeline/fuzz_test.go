package pipeline

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/stroke"
)

// fuzzMaxSamples bounds one fuzz input (~1.4 s at 44.1 kHz, ≈46 STFT
// frames) so each exec stays fast while still spanning several strokes'
// worth of frames.
const fuzzMaxSamples = 60000

// pcm16ToSamples decodes little-endian 16-bit PCM bytes into [-1,1)
// floats, ignoring a trailing odd byte and truncating to the cap — the
// same wire decode the serve front end performs.
func pcm16ToSamples(data []byte, maxSamples int) []float64 {
	n := len(data) / 2
	if n > maxSamples {
		n = maxSamples
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(int16(binary.LittleEndian.Uint16(data[2*i:]))) / 32768
	}
	return out
}

// samplesToPCM16 is the inverse, used to seed the corpus with real
// synthesized recordings.
func samplesToPCM16(samples []float64) []byte {
	out := make([]byte, 2*len(samples))
	for i, v := range samples {
		if v > 1 {
			v = 1
		} else if v < -1 {
			v = -1
		}
		binary.LittleEndian.PutUint16(out[2*i:], uint16(int16(v*32767)))
	}
	return out
}

// FuzzStreamFeed asserts the streaming chain's chunking invariance: for
// any audio and any split of it into chunks, incremental feeding yields
// the same strokes as one whole-buffer feed, every pass of the chunked
// stream's incremental enhancer matches the whole-window chain within
// its work bound, and no input — short, odd-length, silent, or over the
// residue cap — panics or corrupts the stream.
func FuzzStreamFeed(f *testing.F) {
	// One engine per stream; fuzz execs run sequentially per worker
	// process, and each exec Resets before use.
	engWhole, err := NewEngine(DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	engChunk, err := NewEngine(DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	engCapped, err := NewEngine(DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	whole := NewStream(engWhole)
	chunked := NewStream(engChunk)
	capped := NewStream(engCapped)
	capped.MaxChunk = 4096
	oracle := attachOracle(f, chunked)

	// Seed corpus: a real two-stroke recording (truncated to the exec
	// budget), plus degenerate shapes the invariant must survive.
	real2 := synthesizeSequence(f, stroke.Sequence{stroke.S2, stroke.S3})
	realBytes := samplesToPCM16(real2.Samples)
	if len(realBytes) > 2*fuzzMaxSamples {
		realBytes = realBytes[:2*fuzzMaxSamples]
	}
	f.Add(realBytes, uint64(1))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x7f}, uint64(3))                                // odd length
	f.Add(make([]byte, 100), uint64(7))                           // short silence
	f.Add(make([]byte, 2*20000), uint64(9))                       // long silence
	f.Add(realBytes[:min(len(realBytes), 2*8192)], uint64(12345)) // exactly one frame

	f.Fuzz(func(t *testing.T, data []byte, splitSeed uint64) {
		samples := pcm16ToSamples(data, fuzzMaxSamples)

		// Reference: one whole-buffer feed, then flush.
		whole.Reset()
		want, wantErr := whole.Feed(samples)
		if wantErr == nil {
			tail, err := whole.Flush()
			if err != nil {
				t.Fatalf("whole-buffer flush: %v", err)
			}
			want = append(want, tail...)
		}

		// Same audio in arbitrary chunk splits (bounded count so a
		// pathological seed cannot make one exec quadratic).
		rng := rand.New(rand.NewSource(int64(splitSeed)))
		chunked.Reset()
		oracle.t, oracle.lastSeen = t, -1
		var got []Detection
		var gotErr error
		for off := 0; off < len(samples) && gotErr == nil; {
			n := 1 + rng.Intn(8192)
			if rem := len(samples) - off; n > rem {
				n = rem
			}
			dets, err := chunked.Feed(samples[off : off+n])
			gotErr = err
			got = append(got, dets...)
			off += n
		}
		if gotErr == nil {
			tail, err := chunked.Flush()
			if err != nil {
				t.Fatalf("chunked flush: %v", err)
			}
			got = append(got, tail...)
		}

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: whole-buffer %v, chunked %v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("chunked emitted %d detections, whole-buffer %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Stroke != want[i].Stroke {
				t.Errorf("detection %d: chunked %v, whole-buffer %v", i, got[i].Stroke, want[i].Stroke)
			}
			if !got[i].Stroke.Valid() {
				t.Errorf("detection %d: invalid stroke %d", i, int(got[i].Stroke))
			}
			// Emitted exactly once, in order, within the stream extent.
			if d := got[i].Segment.Start - want[i].Segment.Start; d < -4 || d > 4 {
				t.Errorf("detection %d start %d, whole-buffer %d", i, got[i].Segment.Start, want[i].Segment.Start)
			}
			if i > 0 && got[i].Segment.Start <= got[i-1].Segment.End {
				t.Errorf("detections %d/%d overlap: %+v %+v", i-1, i, got[i-1].Segment, got[i].Segment)
			}
			if got[i].Segment.End >= chunked.FramesSeen() {
				t.Errorf("detection %d ends at %d past stream head %d", i, got[i].Segment.End, chunked.FramesSeen())
			}
		}
		if whole.FramesSeen() != chunked.FramesSeen() {
			t.Errorf("frames seen diverge: whole %d, chunked %d", whole.FramesSeen(), chunked.FramesSeen())
		}

		// Residue-cap robustness: an over-cap feed must fail with the
		// typed error, change nothing, and leave the stream usable.
		capped.Reset()
		if _, err := capped.Feed(make([]float64, 8000)); !errors.Is(err, ErrOversizedChunk) {
			t.Fatalf("oversized feed error = %v, want ErrOversizedChunk", err)
		}
		if capped.FramesSeen() != 0 {
			t.Fatal("rejected chunk advanced stream state")
		}
		in := samples
		if len(in) > 4096 {
			in = in[:4096]
		}
		if _, err := capped.Feed(in); err != nil {
			t.Fatalf("in-cap feed after rejection failed: %v", err)
		}
	})
}
