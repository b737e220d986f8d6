// Command ewserve runs the EchoWrite multi-session recognition service:
// an HTTP front end where many concurrent clients stream audio chunks
// and receive stroke detections and word candidates as they complete.
// Sessions are hash-partitioned across -shards independent shards
// (default GOMAXPROCS), each with its own admission bound, session
// table and engine pool, so no lock is shared between shards on the
// hot path.
//
//	ewserve -addr :8791 -max-sessions 256 -workers 8 -shards 8
//
// Wire protocol (see internal/serve):
//
//	POST   /v1/sessions            open a session → {"session":"s00000001"}
//	POST   /v1/sessions/{id}/audio 16-bit LE mono PCM at 44.1 kHz → detections
//	POST   /v1/sessions/{id}/flush drain + word candidates
//	DELETE /v1/sessions/{id}       close
//	GET    /v1/stream              WebSocket duplex ingest (see internal/serve/ws.go)
//	GET    /statsz                 service snapshot (JSON)
//	GET    /metricsz               Prometheus text exposition (v0.0.4)
//
// A full ingest queue returns 429 (resend the chunk after a short
// delay); a full session table returns 503. Drive it with cmd/ewload.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"time"

	"repro/internal/calibrate"
	"repro/internal/infer"
	"repro/internal/lexicon"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/stroke"
)

func main() {
	var (
		addr        = flag.String("addr", ":8791", "listen address")
		maxSessions = flag.Int("max-sessions", 256, "bound on concurrent sessions (total across shards)")
		shards      = flag.Int("shards", 0, "session-manager shards (0 = GOMAXPROCS)")
		workers     = flag.Int("workers", 0, "jobs that run at once, total across shards (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "ingest queue depth (0 = 4×workers)")
		prewarm     = flag.Int("prewarm", 4, "engines built at startup")
		idle        = flag.Duration("idle", 2*time.Minute, "idle-session eviction timeout")
		maxChunk    = flag.Int("max-chunk", 1<<18, "max buffered samples per audio POST")
		window      = flag.Int("max-window", 0, "per-session spectrogram window bound (0 = pipeline default)")
		calibrated  = flag.Bool("calibrated", false, "pool calibrated engines (slower startup, better templates)")
		noWords     = flag.Bool("no-words", false, "disable word candidates on flush")
	)
	flag.Parse()
	if err := run(*addr, *maxSessions, *shards, *workers, *queue, *prewarm, *idle, *maxChunk, *window, *calibrated, *noWords); err != nil {
		fmt.Fprintln(os.Stderr, "ewserve:", err)
		os.Exit(1)
	}
}

func run(addr string, maxSessions, shards, workers, queue, prewarm int, idle time.Duration,
	maxChunk, window int, calibrated, noWords bool) error {
	factory := serve.EngineFactory(nil)
	if calibrated {
		factory = func() (*pipeline.Engine, error) {
			return calibrate.NewCalibratedEngine(pipeline.DefaultConfig())
		}
	}
	var recognizer *infer.Recognizer
	if !noWords {
		var err error
		recognizer, err = buildRecognizer()
		if err != nil {
			return err
		}
	}

	mgr, err := serve.NewShardedManager(serve.Config{
		Engines:     factory,
		Recognizer:  recognizer,
		MaxSessions: maxSessions,
		IdleTimeout: idle,
		Workers:     workers,
		QueueDepth:  queue,
		Prewarm:     prewarm,
		MaxChunk:    maxChunk,
		MaxWindow:   window,
	}, shards)
	if err != nil {
		return err
	}
	defer mgr.Shutdown()

	srv := serve.NewServer(mgr)
	stop := make(chan struct{})
	if idle > 0 {
		go srv.RunEvictor(idle/4+time.Second, stop)
	}

	httpSrv := &http.Server{
		Addr:    addr,
		Handler: srv.Handler(),
		// Slowloris protection: a client must finish its request headers
		// promptly, and idle keep-alive connections are reclaimed.
		// ReadTimeout/WriteTimeout stay unset — audio POSTs from slow
		// writers are legitimate, and /v1/stream connections are
		// long-lived by design (ws.Accept clears the per-connection
		// deadlines after hijacking, so IdleTimeout cannot kill an
		// upgraded stream).
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("ewserve listening on %s (sessions ≤ %d, workers %d, shards %d)\n",
		addr, maxSessions, workersOrDefault(workers), mgr.NumShards())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case err := <-errCh:
		close(stop)
		return err
	case <-sig:
		fmt.Println("\newserve: shutting down")
		close(stop)
		return httpSrv.Close()
	}
}

// buildRecognizer wires the inference layer the way internal/core does,
// without paying pipeline calibration (the serving engines match with
// analytic or pool-configured templates).
func buildRecognizer() (*infer.Recognizer, error) {
	dict, err := lexicon.NewDictionary(stroke.DefaultScheme(), lexicon.DefaultWords())
	if err != nil {
		return nil, err
	}
	return infer.NewRecognizer(dict, infer.DefaultConfusion(), lexicon.DefaultBigram(), infer.DefaultConfig())
}

func workersOrDefault(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
