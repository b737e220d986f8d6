package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/dsp"
	"repro/internal/imgproc"
	"repro/internal/infer"
	"repro/internal/mvce"
	"repro/internal/pipeline"
	"repro/internal/segment"
	"repro/internal/stroke"
)

// detectSample is every how many detection passes the layer replay
// splits a window into stages; passes that emit a stroke are always
// split, so every classification is re-timed.
const detectSample = 8

// streamWindow is pipeline.Stream's default MaxWindow in columns.
const streamWindow = 1024

// windowSnap is one detection pass's input: the window's columns
// (shared with the stream, which never mutates them), the subtraction
// template, and the strokes the pass emitted.
type windowSnap struct {
	cols        [][]float64
	static      []float64
	frameOffset int
	dets        []pipeline.Detection
}

// stageSplit is one window's enhancement chain timed call by call, plus
// contour extraction, segmentation and the re-classified strokes.
type stageSplit struct {
	median, threshold, gaussian, normalize, binarize, fill, comps time.Duration
	// total is the whole enhancement chain; what the imgproc calls do
	// not cover (the template subtraction) is unattributed.
	total, mvce, segment time.Duration
	classify             []float64 // ms per ClassifyProfile
	reproduced, emitted  int
}

// layerStats accumulates the instrumented replay's measurements.
type layerStats struct {
	mu sync.Mutex

	ops, detects, newCols, windowCols int
	frameColumn                       []float64 // µs per FrameColumn call
	recognize                         []float64 // ms per Recognize call
	replayEnhance                     time.Duration
	mirrorMismatch                    int

	sampled       int
	split         stageSplit
	enhanceStream time.Duration // the stream's own time on the split windows

	allocs, allocBytes uint64
	sessionBytes       float64
}

// layerStepper drives a stream through the split Feed path —
// Accumulate, FrameColumn per pending frame, AcceptColumns, AccrueSTFT,
// Detect — while mirroring the window the stream holds, and splits
// sampled windows into stages right after the stream processed them, so
// both timings see the same cache and CPU conditions.
type layerStepper struct {
	st    *pipeline.Stream
	eng   *pipeline.Engine // kept alive so session_bytes excludes it
	stft  *dsp.STFT
	cfg   pipeline.Config
	mcfg  mvce.Config
	stats *layerStats

	samples     []float64 // residue, as the stream buffers it
	win         [][]float64
	static      []float64
	accum       [][]float64
	frameOffset int
	emittedEnd  int
	detects     int
	// snaps keeps every split window so the split's own allocations can
	// be counted after the replay and excluded from the stream's.
	snaps []windowSnap
}

func newLayerStepper(stats *layerStats) (*layerStepper, error) {
	cfg := pipeline.DefaultConfig()
	if cfg.Burst.Enabled {
		return nil, fmt.Errorf("the stage split does not model burst suppression")
	}
	st, err := dsp.NewSTFT(cfg.STFT)
	if err != nil {
		return nil, err
	}
	// The contour configuration pipeline.Config derives internally.
	mcfg := mvce.Config{
		CarrierBin:   cfg.CarrierHz*float64(cfg.STFT.FFTSize)/cfg.STFT.SampleRate - float64(cfg.STFT.LowBin),
		BinWidthHz:   cfg.STFT.SampleRate / float64(cfg.STFT.FFTSize),
		SmoothWindow: cfg.ProfileSmoothWindow,
		Invert:       cfg.InvertSpectrum,
	}
	return &layerStepper{stft: st, cfg: cfg, mcfg: mcfg, stats: stats}, nil
}

// bind resets the mirror when the replay moves to a fresh stream.
func (l *layerStepper) bind(st *pipeline.Stream) {
	if l.st == st {
		return
	}
	l.st, l.eng = st, st.Engine()
	l.samples, l.win, l.static, l.accum = nil, nil, nil, nil
	l.frameOffset, l.emittedEnd, l.detects = 0, 0, 0
}

// push mirrors Stream's column bookkeeping: the first StaticFrames
// columns average into the template, and the window drops its oldest
// columns past streamWindow, never beyond the last emitted stroke.
func (l *layerStepper) push(col []float64) {
	if l.static == nil {
		l.accum = append(l.accum, col)
		if len(l.accum) == l.cfg.StaticFrames {
			l.static = make([]float64, len(col))
			for _, c := range l.accum {
				for b, v := range c {
					l.static[b] += v
				}
			}
			for b := range l.static {
				l.static[b] /= float64(len(l.accum))
			}
			l.accum = nil
		}
	}
	l.win = append(l.win, col)
	if len(l.win) > streamWindow {
		drop := min(len(l.win)-streamWindow, l.emittedEnd-l.frameOffset)
		if drop > 0 {
			l.win = l.win[drop:]
			l.frameOffset += drop
		}
	}
}

func (l *layerStepper) feed(st *pipeline.Stream, chunk []float64) ([]pipeline.Detection, error) {
	l.bind(st)
	if err := st.Accumulate(chunk); err != nil {
		return nil, err
	}
	l.samples = append(l.samples, chunk...)
	cols := make([][]float64, st.PendingFrames())
	us := make([]float64, len(cols))
	t0 := time.Now()
	for i := range cols {
		t := time.Now()
		col, err := l.stft.FrameColumn(st.PendingFrame(i))
		if err != nil {
			return nil, err
		}
		us[i] = float64(time.Since(t)) / float64(time.Microsecond)
		cols[i] = col
	}
	stftTime := time.Since(t0)
	if err := st.AcceptColumns(cols); err != nil {
		return nil, err
	}
	st.AccrueSTFT(stftTime)
	l.stats.mu.Lock()
	l.stats.frameColumn = append(l.stats.frameColumn, us...)
	l.stats.mu.Unlock()
	for _, c := range cols {
		l.samples = l.samples[l.cfg.STFT.HopSize:]
		l.push(c)
	}
	before := st.Timings()
	dets, err := st.Detect()
	if err != nil {
		return nil, err
	}
	return dets, l.observe(st, before, dets, len(cols))
}

func (l *layerStepper) flush(st *pipeline.Stream) ([]pipeline.Detection, error) {
	l.bind(st)
	pushed := 0
	if len(l.samples) > l.cfg.STFT.HopSize {
		frame := make([]float64, l.cfg.STFT.FFTSize)
		copy(frame, l.samples)
		col, err := l.stft.FrameColumn(frame)
		if err != nil {
			return nil, err
		}
		l.push(col)
		pushed = 1
	}
	l.samples = l.samples[:0]
	before := st.Timings()
	dets, err := st.Flush()
	if err != nil {
		return nil, err
	}
	return dets, l.observe(st, before, dets, pushed)
}

// observe records one detection pass and splits its window when sampled.
func (l *layerStepper) observe(st *pipeline.Stream, before pipeline.StageTimings, dets []pipeline.Detection, newCols int) error {
	enh := st.Timings().Enhancement - before.Enhancement
	sampled := enh > 0 && (l.detects%detectSample == 0 || len(dets) > 0)
	var sp stageSplit
	if sampled {
		w := windowSnap{
			cols:        append([][]float64(nil), l.win...),
			static:      l.static,
			frameOffset: l.frameOffset,
			dets:        dets,
		}
		var err error
		if sp, err = l.split(w); err != nil {
			return err
		}
		l.snaps = append(l.snaps, w)
	}
	if enh > 0 {
		l.detects++
	}
	for _, d := range dets {
		l.emittedEnd = d.Segment.End + 1
	}
	s := l.stats
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	if st.FramesSeen() != l.frameOffset+len(l.win) {
		s.mirrorMismatch++
	}
	s.replayEnhance += enh
	if enh > 0 {
		s.detects++
		s.newCols += newCols
		s.windowCols += len(l.win)
	}
	if sampled {
		s.sampled++
		s.enhanceStream += enh
		s.split.add(sp)
	}
	return nil
}

func (l *layerStepper) recognize(rec *infer.Recognizer, seq stroke.Sequence) ([]infer.Candidate, error) {
	t := time.Now()
	c, err := rec.Recognize(seq)
	l.stats.mu.Lock()
	l.stats.recognize = append(l.stats.recognize, ms(time.Since(t)))
	l.stats.mu.Unlock()
	return c, err
}

func (a *stageSplit) add(b stageSplit) {
	a.median += b.median
	a.threshold += b.threshold
	a.gaussian += b.gaussian
	a.normalize += b.normalize
	a.binarize += b.binarize
	a.fill += b.fill
	a.comps += b.comps
	a.total += b.total
	a.mvce += b.mvce
	a.segment += b.segment
	a.classify = append(a.classify, b.classify...)
	a.reproduced += b.reproduced
	a.emitted += b.emitted
}

func (a stageSplit) unattributed() time.Duration {
	return a.total - a.median - a.threshold - a.gaussian - a.normalize - a.binarize - a.fill - a.comps
}

// split re-runs the stream's enhancement chain on one window an imgproc
// call at a time, then contour extraction and segmentation, and
// re-classifies each stroke the pass emitted.
func (l *layerStepper) split(w windowSnap) (stageSplit, error) {
	var sp stageSplit
	cfg := l.cfg
	var m [][]float64
	var bin [][]uint8
	steps := []struct {
		d *time.Duration
		f func() error
	}{
		{&sp.median, func() (err error) { m, err = imgproc.Median3x3(w.cols); return err }},
		{new(time.Duration), func() error { // template subtraction: unattributed
			for _, row := range m {
				for b := range row {
					row[b] -= w.static[b]
					if row[b] < 0 {
						row[b] = 0
					}
				}
			}
			return nil
		}},
		{&sp.threshold, func() error { imgproc.Threshold(m, cfg.EnergyThreshold); return nil }},
		{&sp.gaussian, func() (err error) { m, err = imgproc.GaussianBlur(m, cfg.GaussianKernel, 0); return err }},
		{&sp.normalize, func() error { imgproc.Normalize01(m); return nil }},
		{&sp.binarize, func() error { bin = imgproc.Binarize(m, cfg.BinarizeThreshold); return nil }},
		{&sp.fill, func() (err error) { bin, err = imgproc.FillHoles(bin); return err }},
		{&sp.comps, func() (err error) {
			if cfg.MinComponentSize > 1 {
				bin, err = imgproc.RemoveSmallComponents(bin, cfg.MinComponentSize)
			}
			return err
		}},
	}
	start := time.Now()
	for _, s := range steps {
		t := time.Now()
		if err := s.f(); err != nil {
			return sp, err
		}
		*s.d += time.Since(t)
	}
	sp.total = time.Since(start)
	t := time.Now()
	profile, err := mvce.Extract(bin, l.mcfg)
	if err != nil {
		return sp, err
	}
	sp.mvce = time.Since(t)
	t = time.Now()
	segs, err := segment.Detect(profile, cfg.Segment)
	if err != nil {
		return sp, err
	}
	sp.segment = time.Since(t)
	for _, d := range w.dets {
		sp.emitted++
		for _, seg := range segs {
			if seg.Start+w.frameOffset != d.Segment.Start || seg.End+w.frameOffset != d.Segment.End {
				continue
			}
			slice, err := segment.Slice(profile, seg)
			if err != nil {
				return sp, err
			}
			t := time.Now()
			got, err := l.eng.ClassifyProfile(slice)
			sp.classify = append(sp.classify, ms(time.Since(t)))
			if err == nil && got.Stroke == d.Stroke {
				sp.reproduced++
			}
			break
		}
	}
	return sp, nil
}

// layerReplay is the traced run's oracle: every session replayed through
// the split stream path. Allocations over the replay, less those of the
// stage splits (counted by splitting the same windows again), are the
// stream's; then the heap a live session retains is measured.
func layerReplay(p *plan) (*layerStats, []*replayResult, error) {
	stats := &layerStats{}
	var steppers []*layerStepper
	var mu sync.Mutex
	var setupErr error
	m0 := memStats()
	ref, err := replayAll(p, func() stepper {
		l, err := newLayerStepper(stats)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			setupErr = err
			return plainStepper{}
		}
		steppers = append(steppers, l)
		return l
	})
	m1 := memStats()
	if err == nil {
		err = setupErr
	}
	if err != nil {
		return nil, nil, err
	}
	for _, l := range steppers {
		for _, w := range l.snaps {
			if _, err := l.split(w); err != nil {
				return nil, nil, err
			}
		}
	}
	m2 := memStats()
	stats.allocs = (m1.Mallocs - m0.Mallocs) - (m2.Mallocs - m1.Mallocs)
	stats.allocBytes = (m1.TotalAlloc - m0.TotalAlloc) - (m2.TotalAlloc - m1.TotalAlloc)

	// Each worker still holds its last session's stream; the heap those
	// streams retain is the per-session state.
	for _, l := range steppers {
		l.snaps, l.win, l.accum, l.samples = nil, nil, nil, nil
	}
	withStreams := heapAfterGC()
	for _, l := range steppers {
		l.st = nil
	}
	stats.sessionBytes = float64(withStreams-heapAfterGC()) / float64(len(steppers))
	return stats, ref, nil
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// heapAfterGC is the live heap after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	return memStats().HeapAlloc
}

func (s *layerStats) metrics() []metric {
	per := func(d time.Duration) float64 { return ms(d) / float64(s.sampled) }
	sp := s.split
	return []metric{
		{name: "pipeline.window_cols_mean", unit: "cols", value: float64(s.windowCols) / float64(s.detects), n: s.detects},
		{name: "pipeline.useful_col_ratio", unit: "share", value: float64(s.newCols) / float64(s.windowCols), n: s.detects},
		{name: "imgproc.median_ms", unit: "ms", value: per(sp.median), n: s.sampled},
		{name: "imgproc.threshold_ms", unit: "ms", value: per(sp.threshold), n: s.sampled},
		{name: "imgproc.gaussian_ms", unit: "ms", value: per(sp.gaussian), n: s.sampled},
		{name: "imgproc.normalize_ms", unit: "ms", value: per(sp.normalize), n: s.sampled},
		{name: "imgproc.binarize_ms", unit: "ms", value: per(sp.binarize), n: s.sampled},
		{name: "imgproc.fill_holes_ms", unit: "ms", value: per(sp.fill), n: s.sampled},
		{name: "imgproc.components_ms", unit: "ms", value: per(sp.comps), n: s.sampled},
		{name: "pipeline.enhance_unattributed_ms", unit: "ms", value: per(sp.unattributed()), n: s.sampled},
		{name: "mvce.extract_ms", unit: "ms", value: per(sp.mvce), n: s.sampled},
		{name: "segment.detect_ms", unit: "ms", value: per(sp.segment), n: s.sampled},
		percentile("dsp.frame_column_us_p50", "us", s.frameColumn, 0.50),
		{name: "dsp.columns_total", unit: "count", value: float64(len(s.frameColumn)), n: 1},
		{name: "dtw.classify_ms", unit: "ms", value: mean(sp.classify), n: len(sp.classify)},
		{name: "dtw.calls", unit: "count", value: float64(len(sp.classify)), n: 1},
		{name: "trace.split_reproduced_share", unit: "share", value: float64(sp.reproduced) / float64(max(sp.emitted, 1)), n: sp.emitted},
		percentile("infer.recognize_ms_p50", "ms", s.recognize, 0.50),
		{name: "infer.calls", unit: "count", value: float64(len(s.recognize)), n: 1},
		{name: "pipeline.allocs_per_chunk", unit: "count", value: float64(s.allocs) / float64(s.ops), n: s.ops},
		{name: "pipeline.alloc_bytes_per_chunk", unit: "B", value: float64(s.allocBytes) / float64(s.ops), n: s.ops},
		{name: "pipeline.session_bytes", unit: "B", value: s.sessionBytes, n: 1},
		{name: "trace.mirror_mismatch", unit: "count", value: float64(s.mirrorMismatch), n: s.ops},
	}
}
