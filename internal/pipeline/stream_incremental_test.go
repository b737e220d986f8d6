package pipeline

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/acoustic"
	"repro/internal/imgproc"
	"repro/internal/stroke"
)

// windowChain is the whole-window enhancement chain composed from the
// public imgproc calls and the suppressBursts reference: what a stream's
// incremental enhancer must reproduce bit for bit on every pass.
func windowChain(t testing.TB, cfg Config, cols [][]float64, static []float64) ([][]uint8, []int) {
	t.Helper()
	m, err := imgproc.Median3x3(cols)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range m {
		for b := range row {
			row[b] -= static[b]
			if row[b] < 0 {
				row[b] = 0
			}
		}
	}
	imgproc.Threshold(m, cfg.EnergyThreshold)
	bursts := suppressBursts(m, cfg.Burst)
	if m, err = imgproc.GaussianBlur(m, cfg.GaussianKernel, 0); err != nil {
		t.Fatal(err)
	}
	imgproc.Normalize01(m)
	bin := imgproc.Binarize(m, cfg.BinarizeThreshold)
	if bin, err = imgproc.FillHoles(bin); err != nil {
		t.Fatal(err)
	}
	if cfg.MinComponentSize > 1 {
		if bin, err = imgproc.RemoveSmallComponents(bin, cfg.MinComponentSize); err != nil {
			t.Fatal(err)
		}
	}
	return bin, bursts
}

// windowOracle checks each detection pass of a stream, from inside the
// pass (right after enhancement), against windowChain over the same
// window and template. It also bounds the pass's recomputed rows by the
// columns added since the previous pass plus the enhancer's fixed
// horizon.
type windowOracle struct {
	t        testing.TB
	s        *Stream
	lastSeen int // FramesSeen at the previous pass; -1 before the first
	passes   int
	bursty   int // passes whose window held burst frames
	maxWork  int // most rows recomputed by a pass after the first
}

func attachOracle(t testing.TB, s *Stream) *windowOracle {
	o := &windowOracle{t: t, s: s, lastSeen: -1}
	s.testStageHook = func(stage string) error {
		if stage == "enhance" {
			o.check()
		}
		return nil
	}
	return o
}

// horizon is the enhancer's per-pass recompute allowance beyond the new
// columns: the reach of median, burst runs and Gaussian, behind the
// window head and again at the front after a compaction.
func horizon(eng *Engine) int {
	reach := 0
	if eng.cfg.Burst.Enabled {
		_, maxRun := eng.cfg.Burst.limits()
		reach = maxRun
	}
	return 2 * (1 + reach + len(eng.gauss)/2)
}

func (o *windowOracle) check() {
	s := o.s
	wantBin, wantBursts := windowChain(o.t, s.eng.cfg, s.columns, s.static)
	got := s.enh.view
	if len(got) != len(wantBin) {
		o.t.Fatalf("pass %d: enhanced %d rows, window has %d", o.passes, len(got), len(wantBin))
	}
	for r := range got {
		if !bytes.Equal(got[r], wantBin[r]) {
			o.t.Fatalf("pass %d (frame %d of %d, offset %d): incremental binary row differs from the whole-window chain",
				o.passes, r, len(got), s.frameOffset)
		}
	}
	if gotBursts := s.enh.burstFrames(); !slices.Equal(gotBursts, wantBursts) {
		o.t.Fatalf("pass %d: burst frames %v, whole-window chain %v", o.passes, gotBursts, wantBursts)
	}
	if len(wantBursts) > 0 {
		o.bursty++
	}
	seen := s.FramesSeen()
	if o.lastSeen >= 0 {
		o.maxWork = max(o.maxWork, s.enh.recomputed)
		if s.enh.recomputed > seen-o.lastSeen+horizon(s.eng) {
			o.t.Errorf("pass %d recomputed %d rows for %d new columns (horizon %d)",
				o.passes, s.enh.recomputed, seen-o.lastSeen, horizon(s.eng))
		}
	}
	o.lastSeen = seen
	o.passes++
}

// driveRandom streams samples through s in random chunks, mixing Feed
// with the split Accumulate/AcceptColumns/Detect path, then flushes.
func driveRandom(t *testing.T, s *Stream, samples []float64, rng *rand.Rand) {
	t.Helper()
	for off := 0; off < len(samples); {
		n := min(1+rng.Intn(8192), len(samples)-off)
		chunk := samples[off : off+n]
		off += n
		if rng.Intn(3) > 0 {
			if _, err := s.Feed(chunk); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := s.Accumulate(chunk); err != nil {
			t.Fatal(err)
		}
		cols := make([][]float64, s.PendingFrames())
		for i := range cols {
			col, err := s.eng.stft.FrameColumn(s.PendingFrame(i))
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = col
		}
		if err := s.AcceptColumns(cols); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Detect(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamIncrementalMatchesWindow is the oracle for the incremental
// enhancer: after every pass, under random chunkings, the stream's
// binary image and burst frames equal the whole-window chain's, and a
// pass recomputes no more than its new columns plus a fixed horizon.
func TestStreamIncrementalMatchesWindow(t *testing.T) {
	seq := stroke.Sequence{stroke.S2, stroke.S5, stroke.S1}
	quiet := synthesizeSequence(t, seq)
	bursty := acoustic.StandardEnvironment(acoustic.MeetingRoom)
	bursty.BurstRate, bursty.BurstAmp = 4, 0.9
	noisy := synthesizeSequenceIn(t, seq, bursty)

	burstCfg := DefaultConfig()
	burstCfg.Burst = DefaultBurstConfig()
	cases := []struct {
		name      string
		cfg       Config
		maxWindow int
		audio     []float64
	}{
		{"default", DefaultConfig(), 0, quiet.Samples},
		{"burst", burstCfg, 0, noisy.Samples},
		{"compaction", DefaultConfig(), 48, quiet.Samples},
		{"burst-compaction", burstCfg, 48, noisy.Samples},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewEngine(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := NewStream(eng)
			s.MaxWindow = tc.maxWindow
			o := attachOracle(t, s)
			rng := rand.New(rand.NewSource(int64(ci + 1)))
			for run := 0; run < 2; run++ {
				// The second run reuses the stream after Reset.
				s.Reset()
				o.lastSeen = -1
				driveRandom(t, s, tc.audio, rng)
			}
			if o.passes < 20 {
				t.Fatalf("only %d detection passes checked", o.passes)
			}
			if tc.cfg.Burst.Enabled && o.bursty == 0 {
				t.Fatal("no pass saw burst frames: the burst repair went untested")
			}
			if tc.maxWindow > 0 && s.frameOffset == 0 {
				t.Fatal("window never compacted")
			}
			t.Logf("%d passes, %d with bursts, at most %d rows recomputed after the first pass of a run",
				o.passes, o.bursty, o.maxWork)
		})
	}
}

// TestStreamFlushTimingAccrued pins that the zero-padded final frame
// Flush extracts is charged to the STFT stage, on success and on error.
func TestStreamFlushTimingAccrued(t *testing.T) {
	for _, fail := range []bool{false, true} {
		eng, err := NewEngine(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream(eng)
		if _, err := s.Feed(make([]float64, eng.cfg.STFT.HopSize+100)); err != nil {
			t.Fatal(err)
		}
		sentinel := errors.New("injected flush failure")
		s.testFrameHook = func() error {
			time.Sleep(2 * time.Millisecond)
			if fail {
				return sentinel
			}
			return nil
		}
		before := s.Timings().STFT
		_, err = s.Flush()
		if fail != errors.Is(err, sentinel) {
			t.Fatalf("fail=%v: Flush error = %v", fail, err)
		}
		if got := s.Timings().STFT - before; got < 2*time.Millisecond {
			t.Errorf("fail=%v: Flush accrued %v of STFT time, want the final frame's cost", fail, got)
		}
	}
}

// TestStreamStageTimingAccruedOnError pins that a detection pass that
// fails in a stage still accrues the time it spent in that stage and in
// the ones before it.
func TestStreamStageTimingAccruedOnError(t *testing.T) {
	sig := synthesizeSequence(t, stroke.Sequence{stroke.S2})
	stages := []string{"enhance", "profile", "segment"}
	for fi, failAt := range stages {
		eng, err := NewEngine(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream(eng)
		sentinel := errors.New("injected stage failure")
		s.testStageHook = func(stage string) error {
			time.Sleep(2 * time.Millisecond)
			if stage == failAt {
				return sentinel
			}
			return nil
		}
		if _, err := s.Feed(sig.Samples[:len(sig.Samples)/2]); !errors.Is(err, sentinel) {
			t.Fatalf("fail at %s: Feed error = %v", failAt, err)
		}
		tm := s.Timings()
		for i, got := range []time.Duration{tm.Enhancement, tm.Profile, tm.Segmentation} {
			if i <= fi && got < 2*time.Millisecond {
				t.Errorf("fail at %s: %s accrued %v, want the spent time", failAt, stages[i], got)
			}
			if i > fi && got != 0 {
				t.Errorf("fail at %s: %s accrued %v though it never ran", failAt, stages[i], got)
			}
		}
	}
}
