// Package metrics implements the evaluation measures the paper reports:
// per-stroke confusion matrices and accuracies, top-k word accuracy, and
// the WPM/LPM text-entry speed measures (§V).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stroke"
)

// ConfusionMatrix accumulates stroke-recognition outcomes.
// Counts[intended][observed] tallies recognized strokes; Missed[intended]
// tallies instances where no (or more than one) segment was detected.
type ConfusionMatrix struct {
	Counts [stroke.NumStrokes][stroke.NumStrokes]int
	Missed [stroke.NumStrokes]int
}

// Add records one recognition outcome.
func (c *ConfusionMatrix) Add(intended, observed stroke.Stroke) error {
	if !intended.Valid() || !observed.Valid() {
		return fmt.Errorf("metrics: invalid stroke pair (%d, %d)", int(intended), int(observed))
	}
	c.Counts[intended.Index()][observed.Index()]++
	return nil
}

// AddMiss records a detection failure for an intended stroke.
func (c *ConfusionMatrix) AddMiss(intended stroke.Stroke) error {
	if !intended.Valid() {
		return fmt.Errorf("metrics: invalid stroke %d", int(intended))
	}
	c.Missed[intended.Index()]++
	return nil
}

// Merge adds other's counts into c.
func (c *ConfusionMatrix) Merge(other *ConfusionMatrix) {
	for i := range c.Counts {
		for j := range c.Counts[i] {
			c.Counts[i][j] += other.Counts[i][j]
		}
		c.Missed[i] += other.Missed[i]
	}
}

// RowTotal returns the number of recorded instances for an intended
// stroke, including misses.
func (c *ConfusionMatrix) RowTotal(intended stroke.Stroke) int {
	t := c.Missed[intended.Index()]
	for _, n := range c.Counts[intended.Index()] {
		t += n
	}
	return t
}

// Accuracy returns the recognition accuracy of one intended stroke
// (correct / all instances), or NaN when no instances were recorded.
func (c *ConfusionMatrix) Accuracy(intended stroke.Stroke) float64 {
	t := c.RowTotal(intended)
	if t == 0 {
		return math.NaN()
	}
	return float64(c.Counts[intended.Index()][intended.Index()]) / float64(t)
}

// OverallAccuracy returns correct / all recorded instances.
func (c *ConfusionMatrix) OverallAccuracy() float64 {
	correct, total := 0, 0
	for _, s := range stroke.AllStrokes() {
		correct += c.Counts[s.Index()][s.Index()]
		total += c.RowTotal(s)
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(correct) / float64(total)
}

// Probabilities converts counts into a row-normalized probability matrix
// P[intended][observed], treating misses as proportionally distributed
// over observed outcomes (the paper's confusion matrix conditions on a
// stroke being detected). Rows with no detections become uniform.
func (c *ConfusionMatrix) Probabilities() [stroke.NumStrokes][stroke.NumStrokes]float64 {
	var out [stroke.NumStrokes][stroke.NumStrokes]float64
	for i := range c.Counts {
		rowSum := 0
		for _, n := range c.Counts[i] {
			rowSum += n
		}
		if rowSum == 0 {
			for j := range out[i] {
				out[i][j] = 1.0 / stroke.NumStrokes
			}
			continue
		}
		for j, n := range c.Counts[i] {
			out[i][j] = float64(n) / float64(rowSum)
		}
	}
	return out
}

// TopK accumulates top-k word-recognition accuracy for k = 1..K.
type TopK struct {
	// Hits[k-1] counts trials where the intended word ranked within the
	// top k candidates.
	Hits []int
	// Trials is the number of recorded attempts.
	Trials int
}

// NewTopK creates an accumulator for ranks 1..k.
func NewTopK(k int) (*TopK, error) {
	if k <= 0 {
		return nil, fmt.Errorf("metrics: k must be positive, got %d", k)
	}
	return &TopK{Hits: make([]int, k)}, nil
}

// Record notes one word-entry attempt whose intended word ranked at the
// 1-based position rank among candidates (0 = not present).
func (t *TopK) Record(rank int) {
	t.Trials++
	if rank <= 0 {
		return
	}
	for k := rank; k <= len(t.Hits); k++ {
		t.Hits[k-1]++
	}
}

// Accuracy returns the top-k accuracy, or NaN with no trials.
func (t *TopK) Accuracy(k int) float64 {
	if t.Trials == 0 || k < 1 || k > len(t.Hits) {
		return math.NaN()
	}
	return float64(t.Hits[k-1]) / float64(t.Trials)
}

// Speed measures text-entry throughput.
type Speed struct {
	// Words and Letters are the entered totals.
	Words, Letters int
	// Seconds is the elapsed entry time.
	Seconds float64
}

// Add accumulates one entered word of the given letter count taking dt
// seconds.
func (s *Speed) Add(letters int, dt float64) {
	s.Words++
	s.Letters += letters
	s.Seconds += dt
}

// WPM returns words per minute (the paper's primary speed metric), or 0
// when no time has elapsed.
func (s *Speed) WPM() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return float64(s.Words) / s.Seconds * 60
}

// LPM returns letters per minute, the length-aware speed metric of
// Fig. 17.
func (s *Speed) LPM() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return float64(s.Letters) / s.Seconds * 60
}

// Mean returns the arithmetic mean of xs, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or NaN for
// fewer than one element.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Percentile returns the p-th percentile of xs (p in [0,100]) using
// linear interpolation between closest ranks — the convention load
// reports use for p50/p95/p99. The input is not modified. NaN for empty
// input or p outside [0,100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 100 || math.IsNaN(p) {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile's interpolation over an already-sorted
// non-empty slice — the shared core that lets SummarizeLatencies pay
// for one sort instead of three.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LatencySummary is the percentile triple every serving report quotes.
type LatencySummary struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// SummarizeLatencies computes the standard p50/p95/p99 triple. The
// input is copied and sorted once, then indexed three times, instead of
// paying a copy and sort per percentile. The input is not modified. All
// fields are NaN for empty input.
func SummarizeLatencies(xs []float64) LatencySummary {
	if len(xs) == 0 {
		nan := math.NaN()
		return LatencySummary{P50: nan, P95: nan, P99: nan}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return LatencySummary{
		P50: percentileSorted(sorted, 50),
		P95: percentileSorted(sorted, 95),
		P99: percentileSorted(sorted, 99),
	}
}
