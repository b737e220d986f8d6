// Command ewbenchgate is the benchmark regression gate: it parses `go
// test -bench` output on stdin, reduces repeated runs of each benchmark
// to their minimum (the least-noisy estimate on a shared machine), and
// compares the result against a committed baseline file. The gate fails
// when any baselined benchmark slows down by more than the tolerance,
// changes its allocation count, or is missing from the input, when the
// input has a benchmark the baseline lacks, and when a result line
// carries no allocs/op (the run lost -benchmem) — a silent drop, an
// ungated row or an unread allocation count must not read as a pass.
//
// Speed is gated relative to a reference benchmark measured in the same
// run (the full-FFT STFT, code the serving path no longer touches): a
// row fails when its ns/op divided by the reference's
// grew by more than the tolerance over the baseline's ratio. A uniformly
// slower or faster host moves every row and the reference alike and
// passes; absolute ns/op is printed for information only.
//
// Usage:
//
//	go test -run '^$' -bench B -benchmem -count 3 ./pkg | ewbenchgate [flags]
//
// With -update the measured results overwrite the baseline instead of
// being checked, which is how a deliberate performance change lands: the
// reviewer sees the baseline diff next to the code that caused it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baseline is the committed reference measurement set.
type baseline struct {
	// Note records where the numbers came from; informational only.
	Note       string                   `json:"note,omitempty"`
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// reference is the in-run benchmark every row's speed is gated against.
const reference = "BenchmarkSTFTCompute/fullfft"

// benchLine matches the head of one `go test -bench` result line — the
// name and the iteration count — leaving the `value unit` pairs, e.g.
//
//	BenchmarkStreamFeed1024-4   20   11042354 ns/op   42.91 MB/s   121.6 audio_s/s   2542074 B/op   335 allocs/op
//
// in the remainder, in whatever order and number the benchmark reports
// them. The trailing -N is the GOMAXPROCS suffix, stripped so baselines
// do not depend on the machine's core count.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file to check against (or write with -update)")
	tol := flag.Float64("tol", 0.20, "allowed fractional regression of ns/op relative to the reference before the gate fails")
	update := flag.Bool("update", false, "write measured results to the baseline instead of checking")
	flag.Parse()

	got, err := parseBench(os.Stdin)
	if err != nil {
		fatal("parse: %v", err)
	}
	if len(got) == 0 {
		fatal("no benchmark result lines on stdin")
	}

	if *update {
		if err := writeBaseline(*baselinePath, got); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("ewbenchgate: wrote %d benchmarks to %s\n", len(got), *baselinePath)
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal("%v", err)
	}
	failures := check(base, got, *tol)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "ewbenchgate: FAIL %s\n", f)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "ewbenchgate: %d regression(s) against %s (tolerance %.0f%%); if intentional, re-run with -update and commit the baseline\n",
			len(failures), *baselinePath, *tol*100)
		os.Exit(1)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		g := got[name]
		fmt.Printf("ewbenchgate: ok %-40s %+6.1f%% vs reference; %12.0f ns/op (baseline %12.0f, %+5.1f%%), %d allocs/op\n",
			name, 100*(relative(g, got[reference], b, base.Benchmarks[reference])-1),
			g.NsPerOp, b.NsPerOp, 100*(g.NsPerOp-b.NsPerOp)/b.NsPerOp, g.AllocsPerOp)
	}
}

// relative is how a benchmark's speed moved against the reference: its
// ns/op ratio to the reference in this run over the same ratio in the
// baseline (1 = unchanged, 1.25 = 25% slower relative to the reference).
func relative(got, gotRef, base, baseRef baselineEntry) float64 {
	return (got.NsPerOp / gotRef.NsPerOp) / (base.NsPerOp / baseRef.NsPerOp)
}

// parseBench reduces stdin's benchmark lines to per-name minima.
func parseBench(r io.Reader) (map[string]baselineEntry, error) {
	got := make(map[string]baselineEntry)
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		metrics, err := parseMetrics(m[2])
		if err != nil {
			return nil, fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		ns, ok := metrics["ns/op"]
		if !ok {
			continue // not a result line
		}
		allocsF, ok := metrics["allocs/op"]
		if !ok {
			// Reading a missing count as 0 would pass a 0-alloc row.
			return nil, fmt.Errorf("line %q: no allocs/op (run the benchmarks with -benchmem)", sc.Text())
		}
		allocs := int64(allocsF)
		cur, ok := got[name]
		if !ok || ns < cur.NsPerOp {
			cur.NsPerOp = ns
		}
		// Allocation counts must be stable across runs; keep the max so a
		// flaky allocation in any run surfaces.
		if !seen[name] || allocs > cur.AllocsPerOp {
			cur.AllocsPerOp = allocs
		}
		seen[name] = true
		got[name] = cur
	}
	return got, sc.Err()
}

// parseMetrics reads the `value unit` pairs of a result line's tail into
// a map keyed by unit.
func parseMetrics(tail string) (map[string]float64, error) {
	fields := strings.Fields(tail)
	if len(fields)%2 != 0 {
		return nil, fmt.Errorf("odd number of fields in %q", tail)
	}
	out := make(map[string]float64, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, err
		}
		out[fields[i+1]] = v
	}
	return out, nil
}

// check compares measured minima against the baseline. Every baselined
// benchmark must be present, within the tolerance on its ns/op relative
// to the in-run reference, and at exactly its baselined allocation
// count; every measured benchmark must have a baseline row.
func check(base baseline, got map[string]baselineEntry, tol float64) []string {
	var failures []string
	baseRef, okBase := base.Benchmarks[reference]
	gotRef, okGot := got[reference]
	if !okBase || !okGot {
		return []string{fmt.Sprintf("%s: reference benchmark missing from the baseline or the bench output", reference)}
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		g, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from bench output", name))
			continue
		}
		if rel := relative(g, gotRef, want, baseRef); rel > 1+tol {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op is %.1f%% slower relative to %s than the baseline's %.0f (limit %.0f%%)",
				name, g.NsPerOp, 100*(rel-1), reference, want.NsPerOp, tol*100))
		}
		if g.AllocsPerOp != want.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, baseline %d (allocation counts are gated exactly)",
				name, g.AllocsPerOp, want.AllocsPerOp))
		}
	}
	extra := make([]string, 0, len(got))
	for name := range got {
		if _, ok := base.Benchmarks[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		failures = append(failures, fmt.Sprintf("%s: not in the baseline, so it is not gated", name))
	}
	return failures
}

func readBaseline(path string) (baseline, error) {
	var base baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return base, fmt.Errorf("baseline %s: no benchmarks", path)
	}
	return base, nil
}

func writeBaseline(path string, got map[string]baselineEntry) error {
	base := baseline{
		Note:       "minima of -count runs; update via `make bench-baseline`",
		Benchmarks: got,
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ewbenchgate: "+format+"\n", args...)
	os.Exit(1)
}
