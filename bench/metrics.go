package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one reported number. n is its sample count; a percentile
// with fewer than ten samples beyond it is flagged thin (shown as null in
// the table, still reported in the result line).
type metric struct {
	name, unit string
	value      float64
	n          int
	thin       bool
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place); NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func percentile(name, unit string, xs []float64, q float64) metric {
	beyond := int(float64(len(xs)) * (1 - q))
	return metric{name: name, unit: unit, value: quantile(xs, q), n: len(xs), thin: beyond < 10}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clientView is the end-to-end picture one load run gives from the
// client side, independent of where the server runs.
type clientView struct {
	chunkMs, wordMs, genLateMs []float64
	finalLagS                  []float64
	audioS, spanS              float64
	late, chunks               int
	// acks are the measured chunks' audio by when it was acknowledged.
	acks []ack
}

type ack struct {
	at     time.Time
	audioS float64
}

// lateAfter is the reply delay past a chunk's due time that counts it
// late: beyond it a writer sees the on-screen stroke trail their hand.
const lateAfter = 100 * time.Millisecond

func viewOf(p *plan, res *runResult) clientView {
	var v clientView
	for _, sr := range res.runs {
		s := &p.Sessions[sr.sess]
		lastChunk := -1
		for k, r := range sr.results {
			o := s.Ops[k]
			if !o.Flush {
				lastChunk = k
			}
			if !r.measured {
				continue
			}
			if r.err != nil {
				if !o.Flush {
					v.chunks++
					v.late++
				}
				continue
			}
			lag := r.done.Sub(r.due)
			v.genLateMs = append(v.genLateMs, ms(r.sent.Sub(r.due)))
			if o.Flush {
				v.wordMs = append(v.wordMs, ms(lag))
				continue
			}
			v.chunks++
			v.chunkMs = append(v.chunkMs, ms(lag))
			v.audioS += o.audioSeconds()
			v.acks = append(v.acks, ack{r.done, o.audioSeconds()})
			if lag > lateAfter {
				v.late++
			}
		}
		if lastChunk >= 0 && sr.results[lastChunk].measured && sr.results[lastChunk].err == nil {
			r := sr.results[lastChunk]
			v.finalLagS = append(v.finalLagS, r.done.Sub(r.due).Seconds())
		}
	}
	v.spanS = res.end.Sub(res.t0).Seconds()
	return v
}

// clientMetrics are the end-to-end metrics measured at the client.
func (v clientView) metrics() []metric {
	backlog := 0.0
	for _, l := range v.finalLagS {
		backlog = math.Max(backlog, l)
	}
	return []metric{
		percentile("chunk_p50_ms", "ms", v.chunkMs, 0.50),
		percentile("chunk_p75_ms", "ms", v.chunkMs, 0.75),
		percentile("chunk_p95_ms", "ms", v.chunkMs, 0.95),
		percentile("chunk_p99_ms", "ms", v.chunkMs, 0.99),
		percentile("word_p50_ms", "ms", v.wordMs, 0.50),
		percentile("word_p75_ms", "ms", v.wordMs, 0.75),
		{name: "load.audio_rtf", unit: "x", value: v.audioS / v.spanS, n: len(v.chunkMs)},
		{name: "load.late_chunk_rate", unit: "share", value: float64(v.late) / float64(max(v.chunks, 1)), n: v.chunks},
		{name: "load.backlog_end_s", unit: "s", value: backlog, n: len(v.finalLagS)},
	}
}

// cpuPerAudio is the server's CPU seconds per audio second acknowledged,
// taken in one-second bins of the measured span from t0: the 75th
// percentile over the bins, each bin weighted by the audio acknowledged
// in it. A bin's CPU is interpolated between the samples around its
// edges; bins past the last sample are left out. NaN without bins.
func cpuPerAudio(acks []ack, use []usage, t0 time.Time) float64 {
	if len(use) < 2 {
		return math.NaN()
	}
	last := int(use[len(use)-1].at.Sub(t0) / time.Second)
	audio := make([]float64, last)
	for _, a := range acks {
		if k := int(a.at.Sub(t0) / time.Second); k >= 0 && k < last {
			audio[k] += a.audioS
		}
	}
	type bin struct{ ratio, weight float64 }
	var bins []bin
	total := 0.0
	for k, a := range audio {
		if a > 0 {
			cpu := cpuAt(use, t0.Add(time.Duration(k+1)*time.Second)) - cpuAt(use, t0.Add(time.Duration(k)*time.Second))
			bins = append(bins, bin{cpu / a, a})
			total += a
		}
	}
	if len(bins) == 0 {
		return math.NaN()
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i].ratio < bins[j].ratio })
	acc := 0.0
	for _, b := range bins {
		if acc += b.weight; acc >= 0.75*total {
			return b.ratio
		}
	}
	return bins[len(bins)-1].ratio
}

// cpuAt interpolates the server's cumulative CPU seconds at t between
// the samples around it; use is in time order.
func cpuAt(use []usage, t time.Time) float64 {
	i := sort.Search(len(use), func(i int) bool { return !use[i].at.Before(t) })
	switch {
	case i == 0:
		return use[0].cpuS
	case i == len(use):
		return use[len(use)-1].cpuS
	}
	a, b := use[i-1], use[i]
	f := float64(t.Sub(a.at)) / float64(b.at.Sub(a.at))
	return a.cpuS + f*(b.cpuS-a.cpuS)
}

// printTable writes metric columns side by side; cols[i] labels sets[i].
func printTable(w io.Writer, cols []string, sets ...[]metric) {
	fmt.Fprintf(w, "%-30s %-6s", "metric", "unit")
	for _, c := range cols {
		fmt.Fprintf(w, " %16s", c)
	}
	fmt.Fprintln(w)
	for i, m := range sets[0] {
		fmt.Fprintf(w, "%-30s %-6s", m.name, m.unit)
		for _, set := range sets {
			if i >= len(set) {
				continue
			}
			v := set[i]
			if v.thin || math.IsNaN(v.value) {
				fmt.Fprintf(w, " %16s", fmt.Sprintf("null (n=%d)", v.n))
			} else {
				fmt.Fprintf(w, " %16s", fmt.Sprintf("%.4g (n=%d)", v.value, v.n))
			}
		}
		fmt.Fprintln(w)
	}
}
