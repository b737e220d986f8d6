// Command ewload is the load generator for ewserve: it synthesizes N
// concurrent writers with the acoustic simulator, streams their audio
// chunk by chunk over the wire protocol, and reports throughput,
// p50/p95/p99 per-stroke latency, error counts, and the server's
// per-shard backpressure picture from /statsz.
//
// Against a running server:
//
//	ewload -addr http://127.0.0.1:8791 -writers 32
//
// Self-contained (spins an in-process sharded ewserve on a loopback port):
//
//	ewload -writers 16 -shards 4 -workers 4 -queue 8
//
// Scenario replay (the soak harness): -scenario expands a declarative
// matrix — environment × device × proficiency × seed — records each
// cell's WAV trace once into a content-addressed cache (-trace-dir) and
// replays identical bytes over BOTH ingest paths, first per-chunk HTTP
// POSTs and then persistent /v1/stream WebSockets. After each phase the
// run scrapes /metricsz, parses it strictly, and holds it to health
// bands (progress floor, backpressure ratio, idle evictions,
// feed-latency tail); any violated band in any phase makes the exit
// code non-zero:
//
//	ewload -scenario all -soak 30s
//	ewload -scenario smoke -soak 2s          # what `make soak-smoke` runs
//	ewload -scenario cafe-babble.mate9.on.p70d050.s1
//
// -soak loops whole writer sessions until the deadline; EW_SOAK=long in
// the environment gears the duration ×10 for nightly runs without
// changing the command line. -metrics-push POSTs the raw exposition to
// a metrics collector URL (pushgateway-style) every -push-interval
// during the soak (best effort) and once at the end (counted toward the
// exit code).
//
// Saturating the worker pools is visible as backpressure 429s in the
// report rather than unbounded memory growth on the server. With
// -max-error-rate set below 1, ewload exits non-zero when the fraction
// of failed operations exceeds the threshold, so CI can use a short run
// as a serving smoke gate. With -metricsz the run additionally scrapes
// GET /metricsz afterwards and fails unless the Prometheus exposition
// parses strictly (internal/metrics/expose); the scrape verdict and the
// error-rate verdict are combined, never short-circuited, in every
// mode. With -ws every writer holds one persistent /v1/stream WebSocket
// instead of POSTing each chunk, for a head-to-head latency comparison
// of the two ingest paths.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/audio"
	"repro/internal/infer"
	"repro/internal/lexicon"
	"repro/internal/metrics/expose"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stroke"
)

type options struct {
	addr         string
	writers      int
	word         string
	signals      int
	chunkMs      int
	seed         uint64
	retries      int
	maxErrorRate float64
	shards       int
	workers      int
	queue        int
	maxSessions  int
	prewarm      int
	metricsz     bool
	ws           bool
	scenarioName string
	soak         time.Duration
	traceDir     string
	metricsPush  string
	pushInterval time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "", "target ewserve base URL (empty = start one in-process)")
	flag.IntVar(&o.writers, "writers", 8, "concurrent synthetic writers (scenario mode raises this to cover every cell)")
	flag.StringVar(&o.word, "word", "on", "word every writer writes")
	flag.IntVar(&o.signals, "signals", 0, "distinct synthesized recordings shared by writers (0 = min(writers, 4))")
	flag.IntVar(&o.chunkMs, "chunk-ms", 50, "ingest chunk size in milliseconds")
	flag.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	flag.IntVar(&o.retries, "retries", 100, "backpressure retries per chunk")
	flag.Float64Var(&o.maxErrorRate, "max-error-rate", 0.01, "exit non-zero when the failed-operation fraction exceeds this (1 disables)")
	flag.IntVar(&o.shards, "shards", 0, "in-process server: session-manager shards (0 = GOMAXPROCS)")
	flag.IntVar(&o.workers, "workers", 0, "in-process server: worker goroutines across shards (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 0, "in-process server: ingest queue depth across shards (0 = 4×workers)")
	flag.IntVar(&o.maxSessions, "max-sessions", 256, "in-process server: session bound")
	flag.IntVar(&o.prewarm, "prewarm", 4, "in-process server: engines built at startup")
	flag.BoolVar(&o.metricsz, "metricsz", false, "scrape /metricsz after the run and fail on a malformed exposition")
	flag.BoolVar(&o.ws, "ws", false, "stream over /v1/stream WebSockets instead of per-chunk HTTP POSTs")
	flag.StringVar(&o.scenarioName, "scenario", "", `replay a recorded scenario matrix ("all", "smoke", or one cell name) over both ingest paths with /metricsz band assertions`)
	flag.DurationVar(&o.soak, "soak", 0, "loop writer sessions for this long per phase (EW_SOAK=long gears ×10); implies band assertions")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(os.TempDir(), "ewload-traces"), "content-addressed scenario trace cache")
	flag.StringVar(&o.metricsPush, "metrics-push", "", "POST the raw /metricsz exposition to this URL periodically during the run and once at the end")
	flag.DurationVar(&o.pushInterval, "push-interval", 2*time.Second, "period between -metrics-push uploads")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ewload:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	client := http.DefaultClient
	if o.addr == "" {
		base, shutdown, err := startInProcess(o.shards, o.workers, o.queue, o.maxSessions, o.prewarm)
		if err != nil {
			return err
		}
		defer shutdown()
		o.addr = base
		fmt.Printf("in-process ewserve on %s\n", o.addr)
	}
	if o.soak > 0 && os.Getenv("EW_SOAK") == "long" {
		o.soak *= 10
		fmt.Printf("EW_SOAK=long: soak duration geared to %v per phase\n", o.soak)
	}
	if o.scenarioName != "" {
		return runScenarios(client, o)
	}
	return runPlain(client, o)
}

// runPlain is the classic single-phase load run: synthesized traffic
// over the ingest path -ws selects. All verdicts — metricsz scrape,
// soak bands, error rate — are combined so one failure cannot mask
// another, and every failure reaches the exit code.
func runPlain(client *http.Client, o options) error {
	chunkSamples := 44100 * o.chunkMs / 1000
	proto := "http"
	if o.ws {
		proto = "websocket"
	}
	fmt.Printf("synthesizing recording(s) of %q, driving %d writers (%d-sample chunks, %s)…\n",
		o.word, o.writers, chunkSamples, proto)
	report, err := serve.RunLoad(serve.LoadConfig{
		BaseURL:             o.addr,
		Writers:             o.writers,
		Word:                o.word,
		Signals:             o.signals,
		ChunkSamples:        chunkSamples,
		Seed:                o.seed,
		BackpressureRetries: o.retries,
		Client:              client,
		WS:                  o.ws,
		Duration:            o.soak,
	})
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(report)
	printServerShards(client, o.addr)

	var errs []error
	if o.metricsz || o.soak > 0 {
		fams, raw, err := scrapeMetricsz(client, o.addr)
		if err != nil {
			errs = append(errs, err)
		} else if o.soak > 0 {
			bands := bandsFor(o, o.ws)
			if err := bands.CheckMetrics(fams); err != nil {
				errs = append(errs, err)
			}
			errs = append(errs, finalPush(client, o, raw))
		}
	}
	errs = append(errs, bandsFor(o, o.ws).CheckErrorRate(report.ErrorRate()))
	return errors.Join(errs...)
}

// runScenarios is the replay/soak harness: every matrix cell's cached
// trace, over HTTP then over WebSockets, each phase scraped and held to
// the bands. Failures accumulate across phases; any one of them makes
// the whole run exit non-zero.
func runScenarios(client *http.Client, o options) error {
	cells, err := scenario.Select(o.scenarioName)
	if err != nil {
		return err
	}
	fmt.Printf("scenario %q: %d cell(s), trace cache %s\n", o.scenarioName, len(cells), o.traceDir)
	recordings := make([]*audio.Signal, len(cells))
	for i, c := range cells {
		sig, err := scenario.LoadTrace(o.traceDir, c)
		if err != nil {
			return err
		}
		recordings[i] = sig
		fmt.Printf("  %-40s %5.1fs trace %s\n", c.Name(), sig.Duration(), c.TraceID()[:12])
	}
	// Every cell must actually replay: one writer per cell minimum.
	writers := max(o.writers, len(cells))
	chunkSamples := 44100 * o.chunkMs / 1000

	var errs []error
	for _, phase := range []struct {
		name string
		ws   bool
	}{{"http", false}, {"websocket", true}} {
		fmt.Printf("\n=== phase %s: %d writers, soak %v ===\n", phase.name, writers, o.soak)
		stopPush := startPusher(client, o)
		report, err := serve.RunLoad(serve.LoadConfig{
			BaseURL:             o.addr,
			Writers:             writers,
			ChunkSamples:        chunkSamples,
			BackpressureRetries: o.retries,
			Client:              client,
			WS:                  phase.ws,
			Recordings:          recordings,
			Duration:            o.soak,
		})
		stopPush()
		if err != nil {
			errs = append(errs, fmt.Errorf("phase %s: %w", phase.name, err))
			continue
		}
		fmt.Print(report)
		printServerShards(client, o.addr)

		bands := bandsFor(o, phase.ws)
		if err := bands.CheckErrorRate(report.ErrorRate()); err != nil {
			errs = append(errs, fmt.Errorf("phase %s: %w", phase.name, err))
		}
		fams, raw, err := scrapeMetricsz(client, o.addr)
		if err != nil {
			errs = append(errs, fmt.Errorf("phase %s: %w", phase.name, err))
			continue
		}
		if err := bands.CheckMetrics(fams); err != nil {
			errs = append(errs, fmt.Errorf("phase %s: %w", phase.name, err))
		} else {
			fmt.Printf("bands              all held (%s)\n", phase.name)
		}
		if err := finalPush(client, o, raw); err != nil {
			errs = append(errs, fmt.Errorf("phase %s: %w", phase.name, err))
		}
	}
	return errors.Join(errs...)
}

// bandsFor builds the assertion set: the defaults, the -max-error-rate
// flag, and the WS families requirement once that ingest path ran.
func bandsFor(o options, ws bool) scenario.Bands {
	b := scenario.DefaultBands()
	b.MaxErrorRate = o.maxErrorRate
	b.RequireWS = ws
	return b
}

// startPusher begins the periodic best-effort -metrics-push loop and
// returns its stop function (a no-op when pushing is off). Mid-run push
// failures only warn — the collector being down must not fail the soak
// — but the final post-run push in finalPush is authoritative.
func startPusher(client *http.Client, o options) func() {
	if o.metricsPush == "" || o.pushInterval <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(o.pushInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_, raw, err := scrapeMetricsz(client, o.addr)
				if err == nil {
					err = scenario.Push(client, o.metricsPush, raw)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "ewload: metrics push (continuing): %v\n", err)
				}
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
	}
}

// finalPush uploads the end-of-run exposition; unlike the periodic
// loop, its failure counts toward the exit code. Nil when pushing is
// off.
func finalPush(client *http.Client, o options, raw []byte) error {
	if o.metricsPush == "" {
		return nil
	}
	if err := scenario.Push(client, o.metricsPush, raw); err != nil {
		return err
	}
	fmt.Printf("metrics pushed     %d bytes to %s\n", len(raw), o.metricsPush)
	return nil
}

// printServerShards fetches /statsz and reports the server-side
// per-shard 429 (backpressure) and queue picture, so a load run shows
// which shards ran hot. Best-effort: a server without the endpoint just
// skips the section.
func printServerShards(client *http.Client, addr string) {
	resp, err := client.Get(addr + "/statsz")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return
	}
	fmt.Printf("server 429s        %d total", st.Backpressure)
	if len(st.Shards) > 0 {
		fmt.Print(" — per shard:")
		for i, sh := range st.Shards {
			fmt.Printf(" s%d=%d", i, sh.Backpressure)
		}
	}
	fmt.Println()
}

// scrapeMetricsz scrapes /metricsz through the strict exposition parser
// and prints the summary the smoke gates key on. A malformed family, a
// non-cumulative histogram, a NaN counter, or a missing core family is
// an error.
func scrapeMetricsz(client *http.Client, addr string) ([]expose.Family, []byte, error) {
	fams, raw, err := scenario.Scrape(client, addr+"/metricsz")
	if err != nil {
		return nil, nil, err
	}
	series := 0
	for _, f := range fams {
		series += len(f.Samples)
	}
	fmt.Printf("metricsz           %d families, %d series — exposition parses clean\n", len(fams), series)
	for _, name := range []string{"echowrite_chunks_total", "echowrite_detections_total", "echowrite_backpressure_rejects_total"} {
		total, found := 0.0, false
		for _, f := range fams {
			if f.Name != name {
				continue
			}
			found = true
			for _, s := range f.Samples {
				total += s.Value
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("metricsz exposition missing family %s", name)
		}
		fmt.Printf("  %-38s %g\n", name, total)
	}
	return fams, raw, nil
}

// startInProcess boots a loopback sharded ewserve with word candidates
// enabled and returns its base URL plus a shutdown function.
func startInProcess(shards, workers, queue, maxSessions, prewarm int) (string, func(), error) {
	dict, err := lexicon.NewDictionary(stroke.DefaultScheme(), lexicon.DefaultWords())
	if err != nil {
		return "", nil, err
	}
	rec, err := infer.NewRecognizer(dict, infer.DefaultConfusion(), lexicon.DefaultBigram(), infer.DefaultConfig())
	if err != nil {
		return "", nil, err
	}
	mgr, err := serve.NewShardedManager(serve.Config{
		Recognizer:  rec,
		MaxSessions: maxSessions,
		Workers:     workers,
		QueueDepth:  queue,
		Prewarm:     prewarm,
	}, shards)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown()
		return "", nil, err
	}
	srv := &http.Server{Handler: serve.NewServer(mgr).Handler()}
	// ew:allow goexit: srv.Close in the shutdown closure below stops the
	// serve loop; the analyzer cannot see a stop channel because the
	// http.Server value itself carries the mechanism.
	go srv.Serve(ln)
	shutdown := func() {
		srv.Close()
		mgr.Shutdown()
	}
	// Give the listener a beat; Serve is ready as soon as it runs.
	time.Sleep(10 * time.Millisecond)
	return "http://" + ln.Addr().String(), shutdown, nil
}
