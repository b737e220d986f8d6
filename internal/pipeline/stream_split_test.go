package pipeline

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dsp"
	"repro/internal/stroke"
)

// TestStreamFeedTimingAccruedOnError pins the Feed accounting fix: when
// the hop loop exits on an error after consuming samples, the time
// already spent extracting frames must still land in Timings().STFT —
// previously the early returns skipped the accrual and error feeds
// looked free to the serving layer's stage accounting.
func TestStreamFeedTimingAccruedOnError(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(eng)
	sentinel := errors.New("injected frame failure")
	calls := 0
	s.testFrameHook = func() error {
		calls++
		if calls > 2 {
			// Make the spent window unambiguous on coarse clocks.
			time.Sleep(2 * time.Millisecond)
			return sentinel
		}
		return nil
	}
	cfg := eng.cfg.STFT
	chunk := make([]float64, cfg.FFTSize+3*cfg.HopSize)
	if _, err := s.Feed(chunk); !errors.Is(err, sentinel) {
		t.Fatalf("Feed error = %v, want injected failure", err)
	}
	if calls != 3 {
		t.Fatalf("hook ran %d times, want 3 (two frames extracted, third aborted)", calls)
	}
	if got := s.Timings().STFT; got < 2*time.Millisecond {
		t.Fatalf("STFT timing after failed feed = %v, want the spent time accrued", got)
	}
}

// TestStreamSplitMatchesFeed drives one stream with Feed and a second
// through the split API — Accumulate, PendingFrame reads into a
// separate STFT.FrameColumn, AcceptColumns, AccrueSTFT, Detect — and
// requires the two to emit byte-identical detections. This is the
// single-session equivalence the per-layer benchmark stepper relies on
// when it times each step of a feed separately.
func TestStreamSplitMatchesFeed(t *testing.T) {
	engA, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	engB, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := dsp.NewSTFT(engB.cfg.STFT)
	if err != nil {
		t.Fatal(err)
	}
	sig := synthesizeSequence(t, stroke.Sequence{stroke.S2, stroke.S1})
	a, b := NewStream(engA), NewStream(engB)
	for start := 0; start < len(sig.Samples); start += 2777 {
		end := start + 2777
		if end > len(sig.Samples) {
			end = len(sig.Samples)
		}
		chunk := sig.Samples[start:end]
		detsA, err := a.Feed(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Accumulate(chunk); err != nil {
			t.Fatal(err)
		}
		cols := make([][]float64, b.PendingFrames())
		t0 := time.Now()
		for i := range cols {
			if cols[i], err = st.FrameColumn(b.PendingFrame(i)); err != nil {
				t.Fatal(err)
			}
		}
		b.AccrueSTFT(time.Since(t0))
		if err := b.AcceptColumns(cols); err != nil {
			t.Fatal(err)
		}
		detsB, err := b.Detect()
		if err != nil {
			t.Fatal(err)
		}
		if len(detsA) != len(detsB) {
			t.Fatalf("feed emitted %d detections, split %d", len(detsA), len(detsB))
		}
		for i := range detsA {
			if detsA[i].Stroke != detsB[i].Stroke ||
				detsA[i].Segment != detsB[i].Segment ||
				detsA[i].Contaminated != detsB[i].Contaminated {
				t.Fatalf("detection %d differs: feed %+v, split %+v", i, detsA[i], detsB[i])
			}
		}
	}
	tailA, err := a.Flush()
	if err != nil {
		t.Fatal(err)
	}
	tailB, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(tailA) != len(tailB) {
		t.Fatalf("flush emitted %d vs %d detections", len(tailA), len(tailB))
	}
	for i := range tailA {
		if tailA[i].Stroke != tailB[i].Stroke || tailA[i].Segment != tailB[i].Segment {
			t.Fatalf("flush detection %d differs: %+v vs %+v", i, tailA[i], tailB[i])
		}
	}
	if b.Timings().STFT <= 0 {
		t.Fatal("split-driven stream accrued no STFT time")
	}
	if b.FramesSeen() != a.FramesSeen() {
		t.Fatalf("split stream saw %d frames, feed stream %d", b.FramesSeen(), a.FramesSeen())
	}
}

// TestStreamSplitAPIErrors pins the AcceptColumns contract: offering
// more columns than pending frames, or malformed columns, leaves the
// stream unchanged.
func TestStreamSplitAPIErrors(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(eng)
	cfg := eng.cfg.STFT
	if err := s.Accumulate(make([]float64, cfg.FFTSize)); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingFrames(); got != 1 {
		t.Fatalf("PendingFrames = %d, want 1", got)
	}
	bins := eng.stft.Bins()
	two := [][]float64{make([]float64, bins), make([]float64, bins)}
	if err := s.AcceptColumns(two); err == nil {
		t.Fatal("2 columns for 1 pending frame accepted")
	}
	if err := s.AcceptColumns([][]float64{make([]float64, bins-1)}); err == nil {
		t.Fatal("short column accepted")
	}
	if got := s.PendingFrames(); got != 1 {
		t.Fatalf("rejected AcceptColumns consumed residue: PendingFrames = %d, want 1", got)
	}
	if err := s.AcceptColumns([][]float64{make([]float64, bins)}); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingFrames(); got != 0 {
		t.Fatalf("PendingFrames after accept = %d, want 0", got)
	}
	if got := s.FramesSeen(); got != 1 {
		t.Fatalf("FramesSeen = %d, want 1", got)
	}
}

// TestStreamCompactionClampMidStroke is the boundary regression for the
// window-compaction clamp: when MaxWindow is exactly reached while a
// stroke is still unemitted, the clamp must hold every frame of that
// stroke in the window (letting it exceed MaxWindow) rather than drop
// them. A clamped stream must emit detections identical to an unbounded
// one.
func TestStreamCompactionClampMidStroke(t *testing.T) {
	engRef, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	engClamped, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sig := synthesizeSequence(t, stroke.Sequence{stroke.S3, stroke.S2})
	ref, clamped := NewStream(engRef), NewStream(engClamped)
	// Small enough that the cap is hit during the first stroke, before
	// anything has been emitted (first emission waits out the stroke
	// plus the safety margin).
	clamped.MaxWindow = 40
	var refDets, clampedDets []Detection
	overfull := 0
	for start := 0; start < len(sig.Samples); start += 2048 {
		end := start + 2048
		if end > len(sig.Samples) {
			end = len(sig.Samples)
		}
		d1, err := ref.Feed(sig.Samples[start:end])
		if err != nil {
			t.Fatal(err)
		}
		refDets = append(refDets, d1...)
		d2, err := clamped.Feed(sig.Samples[start:end])
		if err != nil {
			t.Fatal(err)
		}
		clampedDets = append(clampedDets, d2...)
		if len(clamped.columns) > clamped.MaxWindow {
			overfull++
		}
	}
	d1, err := ref.Flush()
	if err != nil {
		t.Fatal(err)
	}
	refDets = append(refDets, d1...)
	d2, err := clamped.Flush()
	if err != nil {
		t.Fatal(err)
	}
	clampedDets = append(clampedDets, d2...)
	if overfull == 0 {
		t.Fatal("clamp never engaged: window stayed within MaxWindow, boundary untested")
	}
	if len(refDets) == 0 {
		t.Fatal("reference stream emitted nothing; scenario is degenerate")
	}
	if len(refDets) != len(clampedDets) {
		t.Fatalf("clamped stream emitted %d detections, reference %d", len(clampedDets), len(refDets))
	}
	for i := range refDets {
		if refDets[i].Stroke != clampedDets[i].Stroke || refDets[i].Segment != clampedDets[i].Segment {
			t.Fatalf("detection %d differs under clamp: %+v vs %+v", i, clampedDets[i], refDets[i])
		}
	}
}
