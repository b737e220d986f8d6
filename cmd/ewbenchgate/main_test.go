package main

import (
	"fmt"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/dsp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSTFTCompute/band-4         	    1406	   1630957 ns/op	  116800 B/op	       3 allocs/op
BenchmarkSTFTCompute/band-4         	    1428	   1530721 ns/op	  116800 B/op	       3 allocs/op
BenchmarkSTFTCompute/band-4         	    1440	   1829650 ns/op	  116800 B/op	       3 allocs/op
BenchmarkSTFTCompute/fullfft-4      	     100	  18000000 ns/op	  116800 B/op	       3 allocs/op
BenchmarkStreamFeed1024-4           	     100	  10000000 ns/op	     500 B/op	       7 allocs/op
PASS
ok  	repro/internal/dsp	8.374s
`

func parseSample(t *testing.T) map[string]baselineEntry {
	t.Helper()
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestParseBenchTakesMinimaAndStripsProcSuffix(t *testing.T) {
	got := parseSample(t)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	band, ok := got["BenchmarkSTFTCompute/band"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", got)
	}
	if band.NsPerOp != 1530721 {
		t.Errorf("band ns/op = %v, want the minimum 1530721", band.NsPerOp)
	}
	if band.AllocsPerOp != 3 {
		t.Errorf("band allocs/op = %d, want 3", band.AllocsPerOp)
	}
	if feed := got["BenchmarkStreamFeed1024"]; feed.AllocsPerOp != 7 {
		t.Errorf("feed allocs/op = %d, want 7", feed.AllocsPerOp)
	}
}

// TestParseBenchReadsEveryMetricPair is the regression for custom
// metrics sitting between ns/op and allocs/op: the real StreamFeed1024
// line reports MB/s and audio_s/s first, and its allocation count was
// once parsed as 0 and baselined so.
func TestParseBenchReadsEveryMetricPair(t *testing.T) {
	cases := []struct {
		line   string
		ns     float64
		allocs int64
	}{
		{"BenchmarkStreamFeed1024-2   \t       3\t  11042354 ns/op\t  42.91 MB/s\t       121.6 audio_s/s\t 2542074 B/op\t     335 allocs/op", 11042354, 335},
		{"BenchmarkStreamFeedSteady-2 \t     500\t    812345 ns/op\t        28.00 cols/op\t    9216 B/op\t      10 allocs/op", 812345, 10},
	}
	for _, c := range cases {
		got, err := parseBench(strings.NewReader(c.line + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("%q: parsed %v, want one benchmark", c.line, got)
		}
		for name, e := range got {
			if e.NsPerOp != c.ns || e.AllocsPerOp != c.allocs {
				t.Errorf("%s: got %v ns/op, %d allocs/op; want %v, %d", name, e.NsPerOp, e.AllocsPerOp, c.ns, c.allocs)
			}
		}
	}
}

// scaled returns the sample results with every ns/op multiplied by f,
// except the named rows, which get their own factor.
func scaled(got map[string]baselineEntry, f float64, rows map[string]float64) map[string]baselineEntry {
	out := make(map[string]baselineEntry, len(got))
	for name, e := range got {
		k, ok := rows[name]
		if !ok {
			k = f
		}
		e.NsPerOp *= k
		out[name] = e
	}
	return out
}

// TestCheckPassesWithinTolerance covers runs the relative gate must
// accept: a host uniformly slower or faster than the baseline's, and a
// row within tolerance of the reference on a slower host.
func TestCheckPassesWithinTolerance(t *testing.T) {
	base := baseline{Benchmarks: parseSample(t)}
	for name, got := range map[string]map[string]baselineEntry{
		"unchanged":                         scaled(base.Benchmarks, 1, nil),
		"uniformly 1.7x slower host":        scaled(base.Benchmarks, 1.7, nil),
		"uniformly 2x faster host":          scaled(base.Benchmarks, 0.5, nil),
		"within tolerance on a slower host": scaled(base.Benchmarks, 1.5, map[string]float64{"BenchmarkStreamFeed1024": 1.5 * 1.15}),
	} {
		if failures := check(base, got, 0.20); len(failures) != 0 {
			t.Errorf("%s: unexpected failures: %v", name, failures)
		}
	}
}

// TestCheckFailsOnRegression covers a single row slowing down relative
// to the reference, on an unchanged and on a faster host.
func TestCheckFailsOnRegression(t *testing.T) {
	base := baseline{Benchmarks: parseSample(t)}
	cases := []struct {
		name, row string
		got       map[string]baselineEntry
	}{
		{"same host", "BenchmarkStreamFeed1024", scaled(base.Benchmarks, 1, map[string]float64{"BenchmarkStreamFeed1024": 1.3})},
		{"faster host", "BenchmarkSTFTCompute/band", scaled(base.Benchmarks, 0.6, map[string]float64{"BenchmarkSTFTCompute/band": 0.6 * 1.3})},
	}
	for _, c := range cases {
		failures := check(base, c.got, 0.20)
		if len(failures) != 1 || !strings.HasPrefix(failures[0], c.row+":") || !strings.Contains(failures[0], "slower relative to") {
			t.Errorf("%s: failures = %v, want one speed failure of %s", c.name, failures, c.row)
		}
	}
}

func TestCheckFailsOnAllocChange(t *testing.T) {
	got := parseSample(t)
	base := baseline{Benchmarks: scaled(got, 1, nil)}
	band := base.Benchmarks["BenchmarkSTFTCompute/band"]
	band.AllocsPerOp = 0
	base.Benchmarks["BenchmarkSTFTCompute/band"] = band
	failures := check(base, got, 0.20)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocs/op") {
		t.Fatalf("failures = %v, want one allocation failure", failures)
	}
}

func TestCheckFailsOnMissingBenchmark(t *testing.T) {
	got := parseSample(t)
	base := baseline{Benchmarks: scaled(got, 1, nil)}
	base.Benchmarks["BenchmarkGone"] = baselineEntry{NsPerOp: 100}
	failures := check(base, got, 0.20)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("failures = %v, want one missing-benchmark failure", failures)
	}
}

func TestCheckFailsWithoutReference(t *testing.T) {
	got := parseSample(t)
	base := baseline{Benchmarks: scaled(got, 1, nil)}
	delete(got, reference)
	failures := check(base, got, 0.20)
	if len(failures) != 1 || !strings.Contains(failures[0], fmt.Sprintf("%s: reference", reference)) {
		t.Fatalf("failures = %v, want one missing-reference failure", failures)
	}
}

// TestParseBenchRejectsMissingAllocs: a result line without allocs/op
// (the run lost -benchmem) must fail the parse rather than read as 0
// allocations, which would match — and pass — a 0-alloc baseline row.
func TestParseBenchRejectsMissingAllocs(t *testing.T) {
	for _, line := range []string{
		"BenchmarkSTFTCompute/band-2\t    4000\t    273794 ns/op",
		"BenchmarkSTFTCompute/band-2\t    4000\t    273794 ns/op\t  116800 B/op",
		"BenchmarkStreamFeed1024-2   \t       3\t  11042354 ns/op\t  42.91 MB/s\t       121.6 audio_s/s",
	} {
		if got, err := parseBench(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%q: parsed %v, want an error", line, got)
		}
	}
}

// TestCheckFailsOnUnbaselinedBenchmark: a benchmark measured in the run
// but absent from the baseline is never compared against anything, so
// the gate must fail on it (only -update, which skips check, may add
// rows).
func TestCheckFailsOnUnbaselinedBenchmark(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"one new row", []string{"BenchmarkNew"}},
		{"two new rows", []string{"BenchmarkNew/a", "BenchmarkNew/b"}},
	} {
		got := parseSample(t)
		base := baseline{Benchmarks: scaled(got, 1, nil)}
		for _, name := range tc.extra {
			got[name] = baselineEntry{NsPerOp: 100}
		}
		failures := check(base, got, 0.20)
		if len(failures) != len(tc.extra) {
			t.Fatalf("%s: failures = %v, want one per unbaselined row", tc.name, failures)
		}
		for i, name := range tc.extra {
			if !strings.HasPrefix(failures[i], name+":") || !strings.Contains(failures[i], "not in the baseline") {
				t.Errorf("%s: failure %q, want %s reported as unbaselined", tc.name, failures[i], name)
			}
		}
	}
}
