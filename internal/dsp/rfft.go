package dsp

import (
	"fmt"
	"math"
	"sync"
)

// rfftTile is the depth-first tile of RFFTPlan's stage traversal, in
// complexes: stages with span above it run breadth-first over the whole
// plane; the remaining stages are carried tile by tile while the tile
// is L1-resident. 1024 complexes = 16 KiB, a third of L1d on the
// serving hardware, leaving room for the narrow tail twiddles.
const rfftTile = 1024

// RFFTPlan computes band magnitudes of a real-valued frame using an
// N/2-point complex transform plus a post-twiddle unpacking pass, the
// classic real-input factorization: the even samples become the real
// parts and the odd samples the imaginary parts of an N/2-length complex
// sequence, one small transform runs, and each output bin is recovered
// from the conjugate-symmetric combination of two bins of that transform.
// Compared with embedding the real frame in a full N-point complex FFT
// this halves the butterfly count and skips the conjugate half entirely.
//
// The inner transform is a radix-4 decimation-in-frequency network over
// an interleaved complex plane: natural-order input, digit-reversed
// output — the reversal permutation is never applied to the data;
// instead the unpacking pass reads through the index table, which costs
// O(B) lookups for a B-bin band instead of an O(N) reordering pass.
// Each stage runs through the widest kernel tier the host supports:
// AVX-512 quad, AVX pair, then the scalar loops, all bit-identical on
// band magnitudes. The wide stages sweep the whole plane; the narrow
// tail runs depth-first per L1-resident tile, and on AVX-512 the final
// span-16/span-4 pair collapses into one register-resident kernel.
//
// The twiddle, reversal and unpacking tables depend only on the size,
// so every plan of one size shares a single read-only set (built once,
// on first use); a plan owns just its scratch plane. A plan is
// therefore not safe for concurrent use; create one per goroutine (the
// STFT does).
type RFFTPlan struct {
	n int // real frame length
	m int // n/2, the complex transform length
	t *rfftTables
	z []complex128 // packed scratch plane, length m
	// vec routes eligible stages and the pack pass through the AVX
	// kernels, vec512 stages through the AVX-512 kernels. Construction
	// seeds them from the host CPU; tests flip them to pin kernel-tier
	// equivalence.
	vec, vec512 bool
}

// rfftTables is the read-only state of every plan of one size.
type rfftTables struct {
	// post[k] = e^{-2πik/n} for k in [0, n/2): the unpacking twiddles.
	post []complex128
	// rev maps a natural-order bin index of the half-size transform to
	// its position in the digit-reversed output of the DIF network.
	rev []int
	// stages holds the per-stage twiddle tables of the radix-4 passes.
	stages []stageTwiddles
	// r2 records a trailing radix-2 stage (log2(m) odd); fuse records
	// that the stage list ends (span 16, span 4) so the fused AVX-512
	// tail kernel applies.
	r2, fuse bool
}

// stageTwiddles holds the three twiddle factors of one radix-4 DIF stage
// of span L, interleaved per butterfly index i in [0, L/4):
// [w1r w1i w2r w2i w3r w3i]... with wp = e^{-2πi·p·i/L}. wv and zv are
// the same table re-laid for the AVX pair and AVX-512 quad kernels (see
// newStageTwiddlesVec and newStageTwiddlesQuad), nil when the stage is
// too narrow for that kernel.
type stageTwiddles struct {
	span int
	w    []float64
	wv   []float64
	zv   []float64
}

// sharedCache memoizes read-only values by key: the first caller
// builds a value, every later caller shares it. Failed builds are not
// cached.
type sharedCache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

func (c *sharedCache[K, V]) get(k K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[k]; ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	if c.m == nil {
		c.m = make(map[K]V)
	}
	c.m[k] = v
	return v, nil
}

// rfftTableCache holds one table set per plan size.
var rfftTableCache sharedCache[int, *rfftTables]

// NewRFFTPlan builds a plan for real frames of length n. n must be a
// power of two and at least 2.
func NewRFFTPlan(n int) (*RFFTPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: RFFT size must be a power of two >= 2, got %d", n)
	}
	tables, _ := rfftTableCache.get(n, func() (*rfftTables, error) { return newRFFTTables(n), nil })
	return &RFFTPlan{
		n:      n,
		m:      n / 2,
		t:      tables,
		z:      make([]complex128, n/2),
		vec:    hasAVX,
		vec512: hasAVX512,
	}, nil
}

// newRFFTTables builds the read-only tables of a real-input plan of
// size n: the unpacking post-twiddles, the digit-reversed output
// permutation of the DIF recursion, and the per-stage twiddle tables in
// every kernel layout.
func newRFFTTables(n int) *rfftTables {
	m := n / 2
	t := &rfftTables{
		post: make([]complex128, m),
		rev:  make([]int, m),
	}
	for k := 0; k < m; k++ {
		angle := -2 * math.Pi * float64(k) / float64(n)
		t.post[k] = complex(math.Cos(angle), math.Sin(angle))
	}
	// Radix sequence: radix-4 stages down to span 4, with a final radix-2
	// stage when log2(m) is odd. Record it to derive the digit-reversed
	// output permutation of the DIF recursion.
	var radices []int
	for span := m; span > 1; {
		if span%4 == 0 {
			radices = append(radices, 4)
			span /= 4
		} else {
			radices = append(radices, 2)
			span /= 2
		}
	}
	for k := 0; k < m; k++ {
		pos, rem, span := 0, k, m
		for _, r := range radices {
			span /= r
			pos += (rem % r) * span
			rem /= r
		}
		t.rev[k] = pos
	}
	for span := m; span >= 4 && span%4 == 0; span /= 4 {
		t.stages = append(t.stages, newStageTwiddles(span))
	}
	ns := len(t.stages)
	t.r2 = m >= 2 && radices[len(radices)-1] == 2
	t.fuse = ns >= 2 && t.stages[ns-1].span == 4 && t.stages[ns-2].span == 16
	return t
}

// newStageTwiddles precomputes the twiddle tables for a radix-4 DIF
// stage of the given span.
func newStageTwiddles(span int) stageTwiddles {
	q := span / 4
	w := make([]float64, 6*q)
	for i := 0; i < q; i++ {
		for pw := 1; pw <= 3; pw++ {
			angle := -2 * math.Pi * float64(pw*i) / float64(span)
			w[6*i+2*(pw-1)] = math.Cos(angle)
			w[6*i+2*(pw-1)+1] = math.Sin(angle)
		}
	}
	return stageTwiddles{
		span: span,
		w:    w,
		wv:   newStageTwiddlesVec(w, span),
		zv:   newStageTwiddlesQuad(w, span),
	}
}

// newStageTwiddlesVec re-lays a stage's scalar twiddle table for the AVX
// kernel: per butterfly pair (i, i+1) and twiddle power p in 1..3, the
// real parts duplicated across each complex lane followed by the
// imaginary parts likewise,
//
//	[cp_i cp_i cp_{i+1} cp_{i+1}]  [dp_i dp_i dp_{i+1} dp_{i+1}]
//
// 24 floats (192 bytes) per pair, matching the fixed offsets the kernel
// reads. Values are copied from the scalar table, so both kernels
// multiply by bit-identical factors. Returns nil when the butterfly
// count is odd (span 4), which the kernel cannot pair.
func newStageTwiddlesVec(w []float64, span int) []float64 {
	q := span / 4
	if q%2 != 0 {
		return nil
	}
	wv := make([]float64, 0, 24*(q/2))
	for i := 0; i < q; i += 2 {
		for p := 0; p < 3; p++ {
			c0, d0 := w[6*i+2*p], w[6*i+2*p+1]
			c1, d1 := w[6*(i+1)+2*p], w[6*(i+1)+2*p+1]
			wv = append(wv, c0, c0, c1, c1, d0, d0, d1, d1)
		}
	}
	return wv
}

// newStageTwiddlesQuad re-lays a stage's scalar twiddle table for the
// AVX-512 kernel: per butterfly quad (i .. i+3) and twiddle power p in
// 1..3, the real parts duplicated across each complex lane followed by
// the imaginary parts likewise,
//
//	[cp_i cp_i cp_{i+1} cp_{i+1} cp_{i+2} cp_{i+2} cp_{i+3} cp_{i+3}]
//	[dp_i dp_i dp_{i+1} dp_{i+1} dp_{i+2} dp_{i+2} dp_{i+3} dp_{i+3}]
//
// 48 floats (384 bytes) per quad, matching the fixed offsets the kernel
// reads. Values are copied from the scalar table, so all kernels
// multiply by bit-identical factors. Returns nil when the butterfly
// count is not a multiple of four, which the kernel cannot group.
func newStageTwiddlesQuad(w []float64, span int) []float64 {
	q := span / 4
	if q%4 != 0 {
		return nil
	}
	zv := make([]float64, 0, 48*(q/4))
	for i := 0; i < q; i += 4 {
		for p := 0; p < 3; p++ {
			for lane := 0; lane < 4; lane++ {
				c := w[6*(i+lane)+2*p]
				zv = append(zv, c, c)
			}
			for lane := 0; lane < 4; lane++ {
				d := w[6*(i+lane)+2*p+1]
				zv = append(zv, d, d)
			}
		}
	}
	return zv
}

// Size reports the real frame length the plan was built for.
func (p *RFFTPlan) Size() int { return p.n }

// Magnitudes writes |X[k]| for the DFT bins k in [low, high) of the
// real frame into dst, which must have length high-low. win is the
// analysis window, fused into the pack pass so the frame is streamed
// once; it must be nil (no window) or of frame length. frame must have
// length Size and the band must lie in [0, Size/2). The call performs
// no allocation.
//
// ew:hotpath — one half-size transform plus O(B) unpack+magnitude work
// per STFT column on the serving path.
func (p *RFFTPlan) Magnitudes(frame, win []float64, low, high int, dst []float64) error {
	if len(frame) != p.n {
		return fmt.Errorf("dsp: RFFT frame length %d does not match plan size %d", len(frame), p.n)
	}
	if win != nil && len(win) != p.n {
		return fmt.Errorf("dsp: window length %d does not match plan size %d", len(win), p.n)
	}
	if low < 0 || high > p.m || low >= high {
		return fmt.Errorf("dsp: band [%d,%d) invalid for transform size %d", low, high, p.n)
	}
	if len(dst) != high-low {
		return fmt.Errorf("dsp: dst length %d does not match band width %d", len(dst), high-low)
	}
	p.pack(frame, win)
	p.forward()
	for i := range dst {
		x := p.unpackBin(low + i)
		dst[i] = math.Sqrt(real(x)*real(x) + imag(x)*imag(x))
	}
	return nil
}

// pack fills the scratch plane with the even/odd packed frame, fusing
// the window multiply when win is non-nil — via the vector kernel when
// available.
//
// ew:hotpath — runs once per STFT column on the serving path.
func (p *RFFTPlan) pack(frame, win []float64) {
	z := p.z
	switch {
	case win == nil:
		for i := range z {
			z[i] = complex(frame[2*i], frame[2*i+1])
		}
	case p.vec && p.n%8 == 0:
		packMulAVX(z, frame, win)
	default:
		for i := range z {
			z[i] = complex(frame[2*i]*win[2*i], frame[2*i+1]*win[2*i+1])
		}
	}
}

// forward runs the DIF stage network over the scratch plane, leaving
// the packed spectrum in digit-reversed order per the rev table: the
// wide stages sweep the whole plane, then the narrow tail runs
// depth-first per tile — the tile stays L1-resident across the
// remaining stages, and on AVX-512 the span-16/span-4 pair collapses
// into a single register-resident kernel.
//
// ew:hotpath — the butterfly network is the dominant per-column cost.
func (p *RFFTPlan) forward() {
	z, stages := p.z, p.t.stages
	ns := len(stages)
	si := 0
	step := rfftTile
	if step > p.m {
		step = p.m
	}
	for ; si < ns && stages[si].span > step; si++ {
		p.runStage(z, stages[si])
	}
	fuse := p.t.fuse && p.vec512
	for base := 0; base < p.m; base += step {
		blk := z[base : base+step : base+step]
		for sj := si; sj < ns; sj++ {
			if fuse && sj == ns-2 {
				difStage16x4AVX512(blk, stages[sj].zv)
				break
			}
			p.runStage(blk, stages[sj])
		}
		if p.t.r2 {
			// Final radix-2 stage (span 2, twiddle 1).
			for j := 0; j+1 < len(blk); j += 2 {
				a, b := blk[j], blk[j+1]
				blk[j] = a + b
				blk[j+1] = a - b
			}
		}
	}
}

// runStage applies one stage over z (the whole plane or an aligned
// tile), through the widest kernel tier available: AVX-512 quad, AVX
// pair, then the scalar loops.
func (p *RFFTPlan) runStage(z []complex128, st stageTwiddles) {
	switch {
	case p.vec512 && st.zv != nil:
		difStageAVX512(z, st.zv, st.span)
	case p.vec && st.wv != nil:
		difStageAVX(z, st.wv, st.span)
	default:
		difStageScalar(z, st)
	}
}

// difStageScalar runs one radix-4 DIF stage over z (a whole plane or an
// aligned tile whose length is a multiple of the span) with the plain
// scalar loops — the reference the vector kernels are pinned against
// and the tier hosts without them run. The four quarters of each block
// are re-sliced to equal lengths so the compiler can prove every access
// in bounds and drop the checks from the inner loop.
//
// ew:hotpath — the butterfly network is the dominant per-column cost.
func difStageScalar(z []complex128, st stageTwiddles) {
	span := st.span
	q := span / 4
	tw := st.w
	if span == 4 {
		// Every twiddle of the span-4 stage is 1 (q = 1 ⇒ i = 0), so
		// the whole pass is multiplication-free.
		for base := 0; base+3 < len(z); base += 4 {
			a, b, c, d := z[base], z[base+1], z[base+2], z[base+3]
			t0, t1 := a+c, a-c
			t2 := b + d
			t3 := complex(imag(b)-imag(d), real(d)-real(b)) // (b-d)·(-i)
			z[base] = t0 + t2
			z[base+1] = t1 + t3
			z[base+2] = t0 - t2
			z[base+3] = t1 - t3
		}
		return
	}
	for base := 0; base < len(z); base += span {
		za := z[base : base+q : base+q]
		zb := z[base+q : base+2*q : base+2*q]
		zc := z[base+2*q : base+3*q : base+3*q]
		zd := z[base+3*q : base+span : base+span]
		for i := range za {
			w := tw[6*i : 6*i+6 : 6*i+6]
			a, b, c, d := za[i], zb[i], zc[i], zd[i]
			t0, t1 := a+c, a-c
			t2 := b + d
			t3r, t3i := imag(b)-imag(d), real(d)-real(b) // (b-d)·(-i)
			za[i] = t0 + t2
			u1r, u1i := real(t1)+t3r, imag(t1)+t3i
			u2r, u2i := real(t0)-real(t2), imag(t0)-imag(t2)
			u3r, u3i := real(t1)-t3r, imag(t1)-t3i
			zb[i] = complex(u1r*w[0]-u1i*w[1], u1r*w[1]+u1i*w[0])
			zc[i] = complex(u2r*w[2]-u2i*w[3], u2r*w[3]+u2i*w[2])
			zd[i] = complex(u3r*w[4]-u3i*w[5], u3r*w[5]+u3i*w[4])
		}
	}
}

// unpackBin recovers bin k (0 <= k < n/2) of the length-n real-input DFT
// from the packed half-size spectrum left in the plane by forward:
//
//	E[k] = (Z[k] + conj(Z[M-k]))/2        (even-sample spectrum)
//	O[k] = -i·(Z[k] - conj(Z[M-k]))/2     (odd-sample spectrum)
//	X[k] = E[k] + e^{-2πik/n}·O[k]
//
// with M = n/2 and Z[M] identified with Z[0]. Z is read through the
// digit-reversal table, so no reordering pass ever runs.
//
// ew:hotpath — called once per retained bin per column.
func (p *RFFTPlan) unpackBin(k int) complex128 {
	m, t := p.m, p.t
	zk := p.z[t.rev[k]]
	zm := p.z[t.rev[(m-k)&(m-1)]] // (m-k) mod m; m is a power of two
	zr, zi := real(zk), imag(zk)
	mr, mi := real(zm), imag(zm)
	// E = (zk + conj(zm))/2, O = -i(zk - conj(zm))/2, expanded to reals.
	er, ei := (zr+mr)/2, (zi-mi)/2
	or, oi := (zi+mi)/2, (mr-zr)/2
	w := t.post[k]
	wr, wi := real(w), imag(w)
	return complex(er+wr*or-wi*oi, ei+wr*oi+wi*or)
}
