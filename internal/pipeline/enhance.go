package pipeline

import (
	"slices"

	"repro/internal/imgproc"
)

// enhancer runs the paper's Doppler-enhancement chain — median filter →
// spectral subtraction → energy gate (α) → burst repair → Gaussian blur →
// zero-one normalization → binarization → hole filling → speck removal —
// over a window of spectrogram columns, one row per STFT frame.
//
// It caches per row the Gaussian-smoothed row, that row's extremes and
// its burst flag, plus the binarized image, all aligned with the window
// and compacted with it. A pass recomputes only the rows whose inputs
// changed: the rows appended since the last pass plus each stage's reach
// behind them (median ±1 row, burst runs up to Burst.MaxFrames rows,
// Gaussian ±half a kernel), and the same margin at the window front
// after a compaction. The window-global steps stay exact: the
// normalization span comes from the cached extremes, every row is
// re-binarized only when that span moved, and hole filling and speck
// removal run over the whole window. The result is bit-identical to
// running the chain from scratch, which is what a cold (zero) enhancer
// does — Engine.Recognize uses one for its single pass. The subtraction
// template is fixed for a recording, so a cold cache (the first pass,
// or after reset) is the only full recompute.
type enhancer struct {
	rows       []enhRow // one per window row; slots past the window are recycled
	cached     int      // leading window rows whose cache entries are current
	dropped    int      // rows compacted off the window front since the last pass
	frontDirty bool     // the window front moved since the last pass
	bins       int      // row width: the engine's band

	normed            bool // bin holds rows binarized under (normMin, normSpan)
	normMin, normSpan float64
	bin               []uint8   // binarized rows, row-major
	out               []uint8   // bin after hole filling and speck removal
	view              [][]uint8 // per-row views into out, returned by run

	work [][]float64  // gated, then horizontally blurred, rows of the range in hand
	tmp  []float64    // horizontal-blur staging row
	edge [2][]float64 // gated burst-run neighbours outside the range
	zero []float64    // the burst neighbour beyond the window edge
	taps [][]float64  // vertical-blur taps
	img  imgproc.Scratch

	// recomputed counts the rows whose Gaussian row the last pass
	// recomputed.
	recomputed int
}

// enhRow is the cache entry of one window row.
type enhRow struct {
	g      []float64 // Gaussian-smoothed row
	lo, hi float64   // extremes of g
	burst  bool      // burst-suspect (wideband) frame
}

// reset empties the cache for a new recording. The buffers that scale
// with the window are released, so an idle pooled stream does not hold
// its last window's cache; the labeling scratch is kept.
func (e *enhancer) reset() { *e = enhancer{img: e.img} }

// drop records that n columns left the window front; the cache follows
// at the start of the next pass.
func (e *enhancer) drop(n int) { e.dropped += n }

// burstIn reports whether any window row in [lo, hi] is burst-suspect.
func (e *enhancer) burstIn(lo, hi int) bool {
	for _, r := range e.rows[max(lo, 0):min(hi+1, e.cached)] {
		if r.burst {
			return true
		}
	}
	return false
}

// burstFrames lists the burst-suspect window rows.
func (e *enhancer) burstFrames() []int {
	var frames []int
	for i, r := range e.rows[:e.cached] {
		if r.burst {
			frames = append(frames, i)
		}
	}
	return frames
}

// denoised returns the normalized Gaussian-smoothed window — the matrix
// the chain binarizes.
func (e *enhancer) denoised() [][]float64 {
	m := imgproc.NewMatrix(e.cached, e.bins)
	for r, row := range m {
		if e.normSpan == 0 {
			continue
		}
		for c, v := range e.rows[r].g {
			row[c] = (v - e.normMin) / e.normSpan
		}
	}
	return m
}

// span is a half-open range of window rows.
type span struct{ lo, hi int }

// run brings the cache up to date with cols (the whole window: at least
// one column, all of the engine's band width) under the template static
// and returns the window's enhanced binary image, valid until the next
// call.
//
// ew:hotpath — runs on every streaming feed.
func (e *enhancer) run(eng *Engine, cols [][]float64, static []float64) [][]uint8 {
	n, bins := len(cols), len(cols[0])
	e.bins = bins
	e.compact()

	// Rows whose Gaussian row may differ from the cache.
	half := len(eng.gauss) / 2
	reach := 0
	if eng.cfg.Burst.Enabled {
		_, maxRun := eng.cfg.Burst.limits()
		reach = maxRun
	}
	var ranges [2]span
	nr := 0
	if e.cached == 0 {
		ranges[0], nr = span{0, n}, 1
	} else {
		if e.frontDirty {
			ranges[0], nr = span{0, min(n, 1+reach+half)}, 1
		}
		if n > e.cached {
			head := span{max(0, e.cached-1-reach-half), n}
			if nr == 1 && ranges[0].hi >= head.lo {
				ranges[0].hi = n
			} else {
				ranges[nr] = head
				nr++
			}
		}
	}
	e.frontDirty = false

	e.resize(n, bins, len(eng.gauss))
	e.recomputed = 0
	for _, rg := range ranges[:nr] {
		e.recompute(eng, cols, static, rg)
	}
	e.cached = n

	lo, hi := e.rows[0].lo, e.rows[0].hi
	for _, r := range e.rows[1:n] {
		if r.lo < lo {
			lo = r.lo
		}
		if r.hi > hi {
			hi = r.hi
		}
	}
	width := hi - lo
	renorm := !e.normed || lo != e.normMin || width != e.normSpan
	if nr == 0 && !renorm {
		return e.view
	}
	if renorm {
		ranges[0], nr = span{0, n}, 1
	}
	th := eng.cfg.BinarizeThreshold
	for _, rg := range ranges[:nr] {
		for r := rg.lo; r < rg.hi; r++ {
			imgproc.BinarizeNormalizedRow(e.bin[r*bins:(r+1)*bins], e.rows[r].g, lo, width, th)
		}
	}
	e.normed, e.normMin, e.normSpan = true, lo, width

	e.img.FillHoles(e.out, e.bin, n, bins)
	if eng.cfg.MinComponentSize > 1 {
		e.img.RemoveSmallComponents(e.out, e.out, n, bins, eng.cfg.MinComponentSize)
	}
	for r := range e.view {
		e.view[r] = e.out[r*bins : (r+1)*bins : (r+1)*bins]
	}
	return e.view
}

// compact applies the pending front drop: the kept rows move to the
// front and the dropped slots behind them, ready for reuse.
func (e *enhancer) compact() {
	d := e.dropped
	if d == 0 {
		return
	}
	e.dropped = 0
	if d >= e.cached {
		e.cached = 0
		return
	}
	kept := e.rows[:e.cached]
	slices.Reverse(kept[:d])
	slices.Reverse(kept[d:])
	slices.Reverse(kept)
	copy(e.bin, e.bin[d*e.bins:e.cached*e.bins])
	e.cached -= d
	e.frontDirty = true
}

// resize sizes the row slots and images for an n-row window, keeping
// the cached rows' contents. Buffers grow with the window and are never
// shrunk.
func (e *enhancer) resize(n, bins, taps int) {
	if cap(e.rows) < n {
		e.rows = slices.Grow(e.rows, n-len(e.rows))
	}
	e.rows = e.rows[:n]
	missing := 0
	for _, r := range e.rows {
		if r.g == nil {
			missing++
		}
	}
	if missing > 0 {
		block := make([]float64, missing*bins)
		for i := range e.rows {
			if e.rows[i].g == nil {
				e.rows[i].g, block = block[:bins:bins], block[bins:]
			}
		}
	}
	e.bin = slices.Grow(e.bin[:e.cached*bins], (n-e.cached)*bins)[:n*bins]
	if cap(e.out) < n*bins {
		e.out = make([]uint8, n*bins, cap(e.bin))
	}
	e.out = e.out[:n*bins]
	if cap(e.view) < n {
		e.view = make([][]uint8, n, cap(e.rows))
	}
	e.view = e.view[:n]
	if e.tmp == nil {
		e.tmp = make([]float64, bins)
		e.zero = make([]float64, bins)
		e.edge = [2][]float64{make([]float64, bins), make([]float64, bins)}
		e.taps = make([][]float64, taps)
	}
}

// workRows returns count scratch rows.
func (e *enhancer) workRows(count int) [][]float64 {
	if have := len(e.work); have < count {
		e.work = slices.Grow(e.work, count-have)[:count]
		block := make([]float64, (count-have)*e.bins)
		for i := have; i < count; i++ {
			e.work[i], block = block[:e.bins:e.bins], block[e.bins:]
		}
	}
	return e.work[:count]
}

// recompute refreshes the cache entries of the rows in rg from the
// window columns: every stage input they depend on is rebuilt in
// scratch, half a Gaussian kernel either side.
//
// ew:hotpath — see run.
func (e *enhancer) recompute(eng *Engine, cols [][]float64, static []float64, rg span) {
	n, k := len(cols), eng.gauss
	half := len(k) / 2
	pa, pb := max(0, rg.lo-half), min(n, rg.hi+half)
	work := e.workRows(pb - pa)
	burst := eng.cfg.Burst.Enabled
	occ, _ := eng.cfg.Burst.limits()
	for r := pa; r < pb; r++ {
		active := e.gate(work[r-pa], cols, r, static, eng.cfg.EnergyThreshold)
		e.rows[r].burst = burst && float64(active) >= occ*float64(e.bins)
	}
	if burst {
		e.repairBursts(eng, cols, static, work, pa, pb)
	}
	for i := range work {
		imgproc.GaussianRow(e.tmp, work[i], k)
		work[i], e.tmp = e.tmp, work[i]
	}
	for r := rg.lo; r < rg.hi; r++ {
		for i := range e.taps {
			e.taps[i] = nil
			if rr := r + i - half; rr >= 0 && rr < n {
				e.taps[i] = work[rr-pa]
			}
		}
		row := &e.rows[r]
		imgproc.GaussianColumn(row.g, e.taps, k)
		row.lo, row.hi = imgproc.Extremes(row.g)
	}
	e.recomputed += rg.hi - rg.lo
}

// gate writes window row r after the median filter, spectral subtraction
// and the energy gate into dst, and returns how many bins stay active.
func (e *enhancer) gate(dst []float64, cols [][]float64, r int, static []float64, alpha float64) int {
	var prev, next []float64
	if r > 0 {
		prev = cols[r-1]
	}
	if r+1 < len(cols) {
		next = cols[r+1]
	}
	imgproc.MedianRow(dst, prev, cols[r], next)
	active := 0
	for b, v := range dst {
		v -= static[b]
		if v < 0 {
			v = 0
		}
		if v < alpha {
			v = 0
		}
		dst[b] = v
		if v > 0 {
			active++
		}
	}
	return active
}

// repairBursts interpolates, across each burst run of at most
// Burst.MaxFrames rows that touches the scratch rows [pa, pb), between
// the clean rows either side of the run (zero beyond the window), the
// §VII-B repair. Longer runs are left as they are. Run extents outside
// the scratch rows come from the cached burst flags; a scan stops once
// a run is known to be too long to repair.
func (e *enhancer) repairBursts(eng *Engine, cols [][]float64, static []float64, work [][]float64, pa, pb int) {
	_, maxRun := eng.cfg.Burst.limits()
	rows := e.rows[:len(cols)]
	n := len(rows)
	for r := pa; r < pb; r++ {
		if !rows[r].burst {
			continue
		}
		f := r
		for f > 0 && rows[f-1].burst && r-f <= maxRun {
			f--
		}
		end := r + 1
		for end < n && rows[end].burst && end-f <= maxRun {
			end++
		}
		if (f > 0 && rows[f-1].burst) || (end < n && rows[end].burst) || end-f > maxRun {
			for r+1 < pb && rows[r+1].burst {
				r++
			}
			continue
		}
		lo, hi := f-1, end
		left := e.gated(eng, cols, static, work, pa, pb, lo, 0)
		right := e.gated(eng, cols, static, work, pa, pb, hi, 1)
		gap := float64(hi - lo)
		for k := max(f, pa); k < min(end, pb); k++ {
			t := float64(k-lo) / gap
			row := work[k-pa]
			for b := range row {
				row[b] = left[b]*(1-t) + right[b]*t
			}
		}
		r = end - 1
	}
}

// gated returns gated window row r: from the scratch rows when it lies
// in [pa, pb), recomputed into edge slot otherwise, and all zero beyond
// the window.
func (e *enhancer) gated(eng *Engine, cols [][]float64, static []float64, work [][]float64, pa, pb, r, slot int) []float64 {
	switch {
	case r < 0 || r >= len(cols):
		return e.zero
	case r >= pa && r < pb:
		return work[r-pa]
	}
	e.gate(e.edge[slot], cols, r, static, eng.cfg.EnergyThreshold)
	return e.edge[slot]
}
