// Command bench is the EchoWrite serving benchmark: it generates a
// seeded workload, drives cmd/ewserve with it over HTTP and /v1/stream,
// checks every served detection and word candidate against a sequential
// replay, and prints the metrics as one JSON line. See README.md.
//
//	bash bench/run.sh --workload word-burst --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeconds is the run length BENCHMARK.json sets; the pinned
// seed-1 hashes are for plans of this length.
const defaultSeconds = 25

// endToEnd names the metrics a run without tracing reports. Timings are
// upper quartiles and 95th percentiles, not medians: the host's speed
// switches between two levels for seconds to minutes at a time, and a
// median falls between them whenever a run straddles a switch (see
// README.md). The run's table also shows the medians, chunk_p99_ms, the
// audio rate, the late-chunk rate, final backlog, error rate, top-5 word
// accuracy and the host's steal share; the traced run reports the
// load.* numbers and the accuracy with the per-layer metrics.
var endToEnd = map[string]bool{
	"setup_s": true, "chunk_p75_ms": true, "chunk_p95_ms": true, "word_p75_ms": true,
	"cpu_per_audio_s": true, "server_rss_mb": true,
}

// setupStarts is how many cold starts setup_s takes the median of.
const setupStarts = 21

func nproc() int { return runtime.NumCPU() }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	ewserve  string
	cache    string
	spans    string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: phrase-long, word-burst or bulk-upload")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "length of the measured span")
	flag.IntVar(&trace, "trace", 0, "1: add a traced in-process run and report per-layer metrics")
	flag.StringVar(&o.ewserve, "ewserve", "", "path to a built cmd/ewserve")
	flag.StringVar(&o.cache, "cache", ".bench_build/cache", "directory for generated workload plans")
	flag.StringVar(&o.spans, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || o.ewserve == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: need -workload phrase-long|word-burst|bulk-upload, -seconds >= 1, -trace 0|1 and -ewserve")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) (*result, error) {
	t := time.Now()
	p, err := loadPlan(o.cache, o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d sessions, plan %s (%.1fs)\n",
		o.workload, o.seed, len(p.Sessions), p.hash()[:16], time.Since(t).Seconds())

	e2e, res, err := untracedRun(o, p)
	if err != nil {
		return nil, err
	}
	out := &result{
		Attempted: res.attempted.Load(),
		Failed:    res.failed.Load(),
		Metrics:   map[string]resultValue{},
	}
	var report []metric
	if o.trace {
		report, out.Correct, err = tracedRun(o, p, res, e2e)
		if err != nil {
			return nil, err
		}
	} else {
		t = time.Now()
		ref, err := replayAll(p, func() stepper { return plainStepper{} })
		if err != nil {
			return nil, err
		}
		out.Correct = true
		if err := checkServed(p, res, ref); err != nil {
			fmt.Fprintln(os.Stderr, "bench: ORACLE MISMATCH:", err)
			out.Correct = false
		}
		e2e = append(e2e, accuracy(ref))
		fmt.Fprintf(os.Stderr, "bench: oracle replay %.1fs, correct=%v\n", time.Since(t).Seconds(), out.Correct)
		printTable(os.Stderr, []string{o.workload}, e2e)
		for _, m := range e2e {
			if endToEnd[m.name] {
				report = append(report, m)
			}
		}
	}
	for _, m := range report {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no samples: JSON has no NaN
		}
		out.Metrics[m.name] = resultValue{Value: v, Unit: m.unit}
	}
	return out, nil
}

// accuracy is the share of scored flushes whose candidates held the
// written word.
func accuracy(ref []*replayResult) metric {
	scored, hits := 0, 0
	for _, r := range ref {
		scored += r.scored
		hits += r.hits
	}
	return metric{name: "infer.top5_acc", unit: "share", value: float64(hits) / float64(max(scored, 1)), n: scored}
}

// untracedRun measures set-up over cold starts of ewserve, then drives
// the plan against the last one and reads its CPU and memory.
func untracedRun(o options, p *plan) ([]metric, *runResult, error) {
	var setups []float64
	var srv *child
	for i := 0; i < setupStarts; i++ {
		c, d, err := startServer(o.ewserve)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupStarts-1 {
			c.stop()
		} else {
			srv = c
		}
	}
	defer srv.stop()
	// The server's usage is sampled from the origin of the measured span
	// until the last reply. Its resident set is reported as the mean of
	// the samples: the peak (VmHWM) depends on where a GC cycle happens
	// to land.
	stop := make(chan struct{})
	type sampled struct {
		use []usage
		err error
	}
	done := make(chan sampled, 1)
	res, err := runPlan(p, srv.url, newHTTPClient(), func() {
		go func() {
			use, err := srv.sample(stop)
			done <- sampled{use, err}
		}()
	})
	close(stop)
	s := <-done
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if s.err != nil {
		return nil, nil, fmt.Errorf("sample server usage: %w", s.err)
	}
	rss := make([]float64, len(s.use))
	for i, u := range s.use {
		rss[i] = u.rssMB
	}
	first, last := s.use[0], s.use[len(s.use)-1]
	v := viewOf(p, res)
	sort.Float64s(setups)
	ms := append([]metric{{name: "setup_s", unit: "s", value: setups[len(setups)/2], n: len(setups)}}, v.metrics()...)
	ms = append(ms,
		metric{name: "cpu_per_audio_s", unit: "s/s", value: cpuPerAudio(v.acks, s.use, res.t0), n: len(s.use)},
		metric{name: "server_rss_mb", unit: "MB", value: mean(rss), n: len(rss)},
		metric{name: "load.error_rate", unit: "share", value: float64(res.failed.Load()) / float64(res.attempted.Load()), n: int(res.attempted.Load())},
		// The share of the host's CPU time the hypervisor took during the
		// measured span. Well above zero, every timing of the run is
		// inflated; it is printed so such a run can be recognized.
		metric{name: "host.steal_share", unit: "share", value: (last.stealS - first.stealS) / (last.at.Sub(first.at).Seconds() * float64(nproc())), n: len(s.use)},
	)
	return ms, res, nil
}
