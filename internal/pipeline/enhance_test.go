package pipeline

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// adversarialRows appends count synthetic spectrogram columns of the
// given width: quiet rows, narrow blobs, and wideband bursts whose run
// lengths straddle the repair limit, so every reach of the chain —
// median, burst runs of MaxFrames±1, Gaussian — is exercised at the
// window head and at a compacted front.
func adversarialRows(rng *rand.Rand, cols [][]float64, count, width, maxRun int) [][]float64 {
	for len(cols) < cap(cols) && count > 0 {
		kind := rng.Intn(4)
		run := 1
		if kind == 3 {
			run = maxRun - 1 + rng.Intn(4) // MaxFrames-1 … MaxFrames+2
		}
		for ; run > 0 && count > 0; run, count = run-1, count-1 {
			row := make([]float64, width)
			for b := range row {
				row[b] = rng.Float64() * 6 // mostly under the energy gate
			}
			switch kind {
			case 1, 2: // a narrow blob at a random band position
				c := rng.Intn(width - 3)
				for b := c; b < c+3; b++ {
					row[b] = 10 + rng.Float64()*40
				}
			case 3: // a wideband burst frame
				for b := range row {
					if rng.Intn(10) > 0 {
						row[b] = 12 + rng.Float64()*30
					}
				}
			}
			cols = append(cols, row)
		}
	}
	return cols
}

// TestEnhancerMatchesWindowChain drives one enhancer through a random
// walk of appends, front compactions and resets over adversarial
// windows, checking every pass against the whole-window chain and the
// per-pass work bound.
func TestEnhancerMatchesWindowChain(t *testing.T) {
	for _, burst := range []bool{false, true} {
		cfg := DefaultConfig()
		if burst {
			cfg.Burst = DefaultBurstConfig()
		}
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, maxRun := cfg.Burst.limits()
		const width = 24
		rng := rand.New(rand.NewSource(7))
		static := make([]float64, width)
		for b := range static {
			static[b] = rng.Float64() * 2
		}
		var e enhancer
		cols := make([][]float64, 0, 1<<16)
		for step := 0; step < 600; step++ {
			fresh := e.cached == 0
			added := rng.Intn(24)
			if len(cols) == 0 {
				added++
			}
			cols = adversarialRows(rng, cols, added, width, maxRun)
			if drop := rng.Intn(30); len(cols) > 80 && drop > 0 {
				cols = cols[drop:]
				e.drop(drop)
			}
			if rng.Intn(40) == 0 {
				e.reset()
				fresh = true
			}
			got := e.run(eng, cols, static)
			want, wantBursts := windowChain(t, cfg, cols, static)
			for r := range want {
				if !bytes.Equal(got[r], want[r]) {
					t.Fatalf("burst=%v step %d: row %d of %d differs from the whole-window chain", burst, step, r, len(cols))
				}
			}
			if gotBursts := e.burstFrames(); !slices.Equal(gotBursts, wantBursts) {
				t.Fatalf("burst=%v step %d: burst frames %v, want %v", burst, step, gotBursts, wantBursts)
			}
			if !fresh && e.recomputed > added+horizon(eng) {
				t.Fatalf("burst=%v step %d: recomputed %d rows for %d new (horizon %d)",
					burst, step, e.recomputed, added, horizon(eng))
			}
		}
	}
}

// TestEnhancerSteadyStateAllocs pins that, once its buffers have grown
// to the window, a pass that appends and compacts allocates nothing.
func TestEnhancerSteadyStateAllocs(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const width, window = 176, 256
	rng := rand.New(rand.NewSource(3))
	pool := adversarialRows(rng, make([][]float64, 0, 4*window), 4*window, width, 16)
	static := make([]float64, width)
	var e enhancer
	cols := pool[:window]
	e.run(eng, cols, static)
	next := window
	allocs := testing.AllocsPerRun(50, func() {
		cols = pool[next+9-window : next+9]
		next += 9
		e.drop(9)
		e.run(eng, cols, static)
	})
	if allocs != 0 {
		t.Errorf("steady-state pass allocates %.1f times, want 0", allocs)
	}
}
