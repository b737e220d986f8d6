package expose

import (
	"math"
	"testing"
	"testing/quick"
)

// octaves is the serving feed-latency layout: 0.25 ms … 512 ms.
func octaves(t *testing.T) []float64 {
	t.Helper()
	b, err := ExpBuckets(0.25, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// observed returns a histogram over bounds fed xs.
func observed(t *testing.T, bounds, xs []float64) *Histogram {
	t.Helper()
	h, err := NewHistogram(bounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		h.Observe(x)
	}
	return h
}

// latencies maps arbitrary generator values onto non-negative
// millisecond latencies that reach past the top bound, so every bucket
// and the +Inf bucket can be hit.
func latencies(raw []uint16) []float64 {
	xs := make([]float64, len(raw))
	for i, r := range raw {
		xs[i] = float64(r) / 64 // 0 … 1024 ms
	}
	return xs
}

func TestHistViewQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	t.Run("all_empty", func(t *testing.T) {
		empty := observed(t, bounds, nil).View()
		sum := SumViews([]HistView{empty, observed(t, bounds, nil).View(), empty})
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := empty.Quantile(q); got != 0 {
				t.Errorf("Quantile(%g) of an empty view = %g, want 0", q, got)
			}
			if got := sum.Quantile(q); got != 0 {
				t.Errorf("Quantile(%g) of summed empty views = %g, want 0", q, got)
			}
		}
	})
	t.Run("no_groups", func(t *testing.T) {
		sum := SumViews(nil)
		if sum.Count != 0 {
			t.Errorf("sum of no views has count %d, want 0", sum.Count)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := sum.Quantile(q); got != 0 {
				t.Errorf("Quantile(%g) of the sum of no views = %g, want 0", q, got)
			}
		}
	})
	t.Run("one_bucket", func(t *testing.T) {
		// Four observations in (1, 2]: rank q·4 interpolates over [1, 2].
		v := observed(t, bounds, []float64{1.1, 1.2, 1.9, 2}).View()
		for _, c := range []struct{ q, want float64 }{{0.5, 1.5}, {0.25, 1.25}, {1, 2}} {
			if got := v.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
				t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
			}
		}
		// The first bucket's lower edge is 0.
		if got := observed(t, bounds, []float64{0.5, 0.5}).View().Quantile(0.5); got != 0.5 {
			t.Errorf("first-bucket Quantile(0.5) = %g, want 0.5", got)
		}
	})
	t.Run("inf_bucket", func(t *testing.T) {
		v := observed(t, bounds, []float64{0.5, 100, 200, 300}).View()
		for _, q := range []float64{0.5, 0.99, 1} {
			if got := v.Quantile(q); got != 4 {
				t.Errorf("Quantile(%g) with mass past the top bound = %g, want 4", q, got)
			}
		}
	})
	t.Run("identical_constant_shards", func(t *testing.T) {
		// Five samples of 3 ms over two shards all land in (2, 4]; the
		// rank q·5 interpolates over that one bucket.
		sum := SumViews([]HistView{
			observed(t, bounds, []float64{3, 3, 3}).View(),
			observed(t, bounds, []float64{3, 3}).View(),
		})
		if sum.Count != 5 {
			t.Fatalf("summed count = %d, want 5", sum.Count)
		}
		for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.95, 3.9}, {0.99, 3.98}} {
			if got := sum.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
				t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
			}
		}
	})
	t.Run("skewed_shard_sizes_match_pooled_percentiles", func(t *testing.T) {
		// One hot shard with 99 samples, one nearly idle with 1: the sum
		// must weight by sample count, not average per-shard quantiles.
		b := octaves(t)
		hot := make([]float64, 99)
		for i := range hot {
			hot[i] = float64(i + 1)
		}
		shards := []HistView{observed(t, b, hot).View(), observed(t, b, []float64{100}).View()}
		sum, pooled := SumViews(shards), observed(t, b, append(hot, 100)).View()
		if sum.Count != 100 {
			t.Fatalf("summed count = %d, want 100", sum.Count)
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if got, want := sum.Quantile(q), pooled.Quantile(q); got != want {
				t.Errorf("Quantile(%g) of summed shards = %g, pooled histogram %g", q, got, want)
			}
			if avg := (shards[0].Quantile(q) + shards[1].Quantile(q)) / 2; sum.Quantile(q) == avg {
				t.Errorf("Quantile(%g) = %g equals the unweighted mean of shard quantiles", q, avg)
			}
		}
	})
	t.Run("shard_sum_equals_union", func(t *testing.T) {
		b := octaves(t)
		prop := func(a, c, d []uint16) bool {
			shards := [][]float64{latencies(a), latencies(c), latencies(d)}
			var union []float64
			views := make([]HistView, len(shards))
			for i, xs := range shards {
				views[i] = observed(t, b, xs).View()
				union = append(union, xs...)
			}
			sum, one := SumViews(views), observed(t, b, union).View()
			for _, q := range []float64{0.5, 0.95, 0.99} {
				if sum.Quantile(q) != one.Quantile(q) {
					t.Logf("q=%g: summed shards %g, one histogram %g", q, sum.Quantile(q), one.Quantile(q))
					return false
				}
			}
			return sum.Count == one.Count
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestHistViewQuantileMonotone checks p50 ≤ p95 ≤ p99 over arbitrary
// samples, the ordering /statsz consumers assume.
func TestHistViewQuantileMonotone(t *testing.T) {
	b := octaves(t)
	prop := func(raw []uint16) bool {
		v := observed(t, b, latencies(raw)).View()
		p50, p95, p99 := v.Quantile(0.50), v.Quantile(0.95), v.Quantile(0.99)
		return p50 <= p95 && p95 <= p99
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSumViewsRejectsMixedLayouts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SumViews accepted views over different bucket layouts")
		}
	}()
	SumViews([]HistView{
		observed(t, []float64{1, 2}, nil).View(),
		observed(t, []float64{1, 3}, nil).View(),
	})
}
