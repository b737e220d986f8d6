package serve

import (
	"math"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/testutil/leak"
)

// TestRunLoadInProcess exercises the whole serving stack the way
// cmd/ewload does: concurrent writers over HTTP against an in-process
// server, aggregated into a throughput/latency report.
func TestRunLoadInProcess(t *testing.T) {
	leak.Check(t)
	mgr, err := NewManager(Config{MaxSessions: 8, Workers: 2, QueueDepth: 16, Prewarm: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	report, err := RunLoad(LoadConfig{
		BaseURL:      ts.URL,
		Writers:      4,
		Signals:      1,
		Word:         "on",
		ChunkSamples: 8192,
		Seed:         7,
		Client:       ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)

	if report.Errors != 0 {
		t.Errorf("load run hit %d errors", report.Errors)
	}
	if report.ChunksSent == 0 || report.AudioSeconds <= 0 {
		t.Errorf("no traffic recorded: %+v", report)
	}
	// Every writer writes a real word, so strokes must be detected and
	// the latency quantiles populated and ordered.
	if report.Detections == 0 {
		t.Error("no detections under load")
	}
	c := report.ChunkLatencyMs
	if !(c.P50 > 0 && c.P50 <= c.P95 && c.P95 <= c.P99) {
		t.Errorf("chunk latency quantiles unordered: %+v", c)
	}
	s := report.StrokeLatencyMs
	if !(s.P50 > 0 && s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Errorf("stroke latency quantiles unordered: %+v", s)
	}
	if report.RealTimeFactor() <= 0 {
		t.Errorf("real-time factor = %g", report.RealTimeFactor())
	}

	// The server side saw the same traffic.
	st := mgr.Snapshot()
	if st.Chunks == 0 || st.ActiveSessions != 0 {
		t.Errorf("server snapshot %+v after load", st)
	}
	if report.Sessions != 4 {
		t.Errorf("single-pass run completed %d sessions, want one per writer", report.Sessions)
	}
}

// TestRunLoadReplaySoak drives the scenario-replay path: pre-recorded
// traces instead of synthesis, looped until a soak deadline. The replay
// must send exactly the recording's bytes (chunk math below) and the
// soak must complete more sessions than writers.
func TestRunLoadReplaySoak(t *testing.T) {
	leak.Check(t)
	mgr, err := NewManager(Config{MaxSessions: 8, Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	// A short recording (quarter second) so each session pass is quick.
	rec := &audio.Signal{Rate: 44100, Samples: make([]float64, 11025)}
	for i := range rec.Samples {
		rec.Samples[i] = 0.1 * math.Sin(2*math.Pi*20000*float64(i)/44100)
	}
	report, err := RunLoad(LoadConfig{
		BaseURL:      ts.URL,
		Writers:      2,
		ChunkSamples: 4096,
		Client:       ts.Client(),
		Recordings:   []*audio.Signal{rec},
		Duration:     300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", report)
	if report.Errors != 0 {
		t.Errorf("soak hit %d errors", report.Errors)
	}
	if report.Sessions <= report.Writers {
		t.Errorf("soak completed %d sessions over %d writers; deadline loop never looped", report.Sessions, report.Writers)
	}
	chunksPerPass := (len(rec.Samples) + 4095) / 4096
	if report.ChunksSent != report.Sessions*chunksPerPass {
		t.Errorf("chunks sent %d, want %d sessions × %d chunks: replay did not send the recording verbatim",
			report.ChunksSent, report.Sessions, chunksPerPass)
	}
	if got, want := report.AudioSeconds, float64(report.Sessions)*rec.Duration(); math.Abs(got-want) > 1e-9 {
		t.Errorf("audio seconds %g, want %g", got, want)
	}
}

// TestFlushRetriesBackpressure saturates a one-worker, one-slot manager
// by stalling one session's job in JobStartHook and parking a second job
// in the queue, so another session's flush is answered 429. The load
// harness must retry that flush like a chunk — counting the 429s as
// backpressure — and succeed once the stall lifts, not report an error.
func TestFlushRetriesBackpressure(t *testing.T) {
	leak.Check(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var stallID atomic.Value
	stallID.Store("")
	var once sync.Once
	mgr, err := NewManager(Config{Workers: 1, QueueDepth: 1, Prewarm: 2,
		JobStartHook: func(id string) {
			if id == stallID.Load().(string) {
				once.Do(func() {
					close(entered)
					<-release
				})
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()
	cfg := LoadConfig{BaseURL: ts.URL, Client: ts.Client(), BackpressureRetries: 100000}.withDefaults()

	staller, err := openSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	target, err := openSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stallID.Store(staller)
	var feeds sync.WaitGroup
	for i := 0; i < 2; i++ {
		feeds.Add(1)
		go func() {
			defer feeds.Done()
			if _, err := mgr.Feed(staller, make([]float64, 1024)); err != nil {
				t.Errorf("stalled feed: %v", err)
			}
		}()
		if i == 0 {
			<-entered // the worker is now held inside the first job
		}
	}
	for len(mgr.jobs) < 1 { // the second job fills the one queue slot
		time.Sleep(time.Millisecond)
	}

	type flushResult struct {
		res writerResult
		err error
	}
	done := make(chan flushResult, 1)
	go func() {
		var r flushResult
		_, _, r.err = flushSession(cfg, target, &r.res)
		done <- r
	}()
	for mgr.Snapshot().Backpressure == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	r := <-done
	feeds.Wait()
	if r.err != nil {
		t.Fatalf("flush under backpressure failed: %v", r.err)
	}
	if r.res.backpressure == 0 {
		t.Error("flush saw a 429 but counted no backpressure")
	}
	if r.res.errors != 0 {
		t.Errorf("flush counted %d errors", r.res.errors)
	}
}
