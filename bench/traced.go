package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// span is one timed interval. Parent indexes the enclosing span in the
// same trace (-1 for none); Session ties spans of one client session.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session string `json:"session,omitempty"`
	// Err marks a call that returned an error (a shed 429, say).
	Err bool `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Recording happens
// only in this package, around calls into the server's public surface.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
	// open maps a session to its in-flight service span, deq a service
	// span to its job's dequeue time.
	open map[string]int // guarded by mu
	deq  map[int]int64  // guarded by mu
}

// recorded copies the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), open: map[string]int{}, deq: map[int]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a service span for a session's call.
func (t *tracer) begin(name, session string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: -1, Session: session})
	i := len(t.spans) - 1
	if session != "" {
		t.open[session] = i
	}
	return i
}

// jobStart is the manager's JobStartHook: the session's queued job was
// just taken by a worker.
func (t *tracer) jobStart(session string) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[session]; ok {
		t.deq[i] = now
	}
}

// end closes service span i; a job dequeued during the call splits it
// into queue-wait and job child spans.
func (t *tracer) end(i int, err error) {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.End, s.Err = now, err != nil
	if t.open[s.Session] == i {
		delete(t.open, s.Session)
	}
	if d, ok := t.deq[i]; ok {
		delete(t.deq, i)
		name := strings.TrimPrefix(s.Name, "svc.")
		sess := s.Session
		t.spans = append(t.spans,
			span{Name: "serve.queue." + name, Start: s.Start, End: d, Parent: i, Session: sess},
			span{Name: "serve.job." + name, Start: d, End: now, Parent: i, Session: sess})
	}
}

// middleware times every session request the HTTP front end serves.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
		if len(parts) < 2 || parts[1] != "sessions" {
			h.ServeHTTP(w, r) // stream upgrades, /statsz, /metricsz
			return
		}
		name, sess := "open", ""
		if len(parts) >= 3 {
			sess, name = parts[2], "close"
		}
		if len(parts) == 4 {
			name = parts[3]
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{Name: "http." + name, Start: start, End: t.now(), Parent: -1, Session: sess})
	})
}

// tracedService wraps the manager handed to serve.NewServer. Embedding
// keeps the manager's metrics surface, so /metricsz still renders.
type tracedService struct {
	*serve.ShardedManager
	tr *tracer
}

func (s *tracedService) Open() (string, error) {
	i := s.tr.begin("svc.open", "")
	id, err := s.ShardedManager.Open()
	s.tr.mu.Lock()
	s.tr.spans[i].Session = id
	s.tr.mu.Unlock()
	s.tr.end(i, err)
	return id, err
}

func (s *tracedService) Feed(id string, chunk []float64) ([]pipeline.Detection, error) {
	i := s.tr.begin("svc.feed", id)
	dets, err := s.ShardedManager.Feed(id, chunk)
	s.tr.end(i, err)
	return dets, err
}

func (s *tracedService) Flush(id string) ([]pipeline.Detection, []infer.Candidate, error) {
	i := s.tr.begin("svc.flush", id)
	dets, cands, err := s.ShardedManager.Flush(id)
	s.tr.end(i, err)
	return dets, cands, err
}

func (s *tracedService) Close(id string) error {
	i := s.tr.begin("svc.close", id)
	err := s.ShardedManager.Close(id)
	s.tr.end(i, err)
	return err
}

// inProcessServer wires serve.Config exactly as cmd/ewserve does from its
// default flags, plus the tracer's hooks. It runs no idle evictor: with
// ewserve's 2-minute idle timeout, eviction never fires within a run.
type inProcessServer struct {
	url  string
	http *http.Server
	mgr  *serve.ShardedManager
	done chan struct{}
}

func startInProcess(tr *tracer) (*inProcessServer, error) {
	rec, err := newRecognizer()
	if err != nil {
		return nil, err
	}
	mgr, err := serve.NewShardedManager(serve.Config{
		Recognizer:   rec,
		MaxSessions:  256,
		IdleTimeout:  2 * time.Minute,
		Prewarm:      4,
		MaxChunk:     ewserveMaxChunk,
		JobStartHook: tr.jobStart,
	}, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Shutdown()
		return nil, err
	}
	srv := serve.NewServer(&tracedService{ShardedManager: mgr, tr: tr})
	s := &inProcessServer{
		url:  "http://" + ln.Addr().String(),
		http: &http.Server{Handler: tr.middleware(srv.Handler()), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute},
		mgr:  mgr,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns when close is called
	}()
	return s, nil
}

func (s *inProcessServer) close() {
	s.http.Close()
	<-s.done
	s.mgr.Shutdown()
}

// scrape reads /metricsz, summing each sample over its shard label.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	fams, err := expose.Parse(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("parse /metricsz: %w", err)
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			for _, l := range s.Labels {
				if l.Name != "shard" {
					key += "{" + l.Name + "=" + l.Value + "}"
				}
			}
			out[key] += s.Value
		}
	}
	return out, nil
}

// tracedRun replays the plan against an in-process server with spans
// recorded at the front end, the service boundary and job dequeue, then
// replays every session through an instrumented stream to split pipeline
// time by layer. It reports per-layer metrics; the untraced run's
// client-side table is printed beside the traced one.
func tracedRun(o options, p *plan, untraced *runResult, e2e []metric) ([]metric, bool, error) {
	tr := newTracer()
	srv, err := startInProcess(tr)
	if err != nil {
		return nil, false, err
	}
	before, err := scrape(srv.url)
	if err != nil {
		srv.close()
		return nil, false, err
	}
	res, runErr := runPlan(p, srv.url, newHTTPClient(), func() {})
	after, err := scrape(srv.url)
	srv.close()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "bench: traced run:", runErr)
	}
	if err != nil {
		return nil, false, err
	}
	for _, sr := range res.runs {
		for k, r := range sr.results {
			if r.err == nil && !r.done.IsZero() {
				kind := "chunk"
				if p.Sessions[sr.sess].Ops[k].Flush {
					kind = "flush"
				}
				tr.add(span{Name: "client." + kind, Start: tr.at(r.sent), End: tr.at(r.done), Parent: -1, Session: sr.id})
			}
		}
	}

	lr, ref, err := layerReplay(p)
	if err != nil {
		return nil, false, err
	}
	correct := true
	for _, run := range []*runResult{untraced, res} {
		if err := checkServed(p, run, ref); err != nil {
			fmt.Fprintln(os.Stderr, "bench: ORACLE MISMATCH:", err)
			correct = false
		}
	}

	uv := viewOf(p, untraced)
	um, tm := uv.metrics(), viewOf(p, res).metrics()
	fmt.Fprintln(os.Stderr, "bench: client view; the gap between the columns is tracing overhead")
	printTable(os.Stderr, []string{"untraced", "traced"}, um, tm)

	spans := tr.recorded()
	layers := append(spanMetrics(spans), serverMetrics(before, after, spans)...)
	layers = append(layers, lr.metrics()...)
	for _, m := range e2e {
		if strings.HasPrefix(m.name, "load.") {
			layers = append(layers, m)
		}
	}
	layers = append(layers,
		accuracy(ref),
		percentile("load.gen_late_p99_ms", "ms", uv.genLateMs, 0.99),
		metric{name: "trace.chunk_p50_overhead", unit: "ratio", value: tm[0].value / um[0].value, n: tm[0].n},
	)
	layers = append(layers, reconcile(lr, before, after)...)
	printTable(os.Stderr, []string{o.workload}, layers)
	if err := writeSpans(o, spans); err != nil {
		return nil, false, err
	}
	return layers, correct, nil
}

// spanMetrics derives the serve-layer numbers from the recorded spans.
func spanMetrics(spans []span) []metric {
	var self, queue, job, open, flush []float64
	bySess := map[string][]span{}
	for _, s := range spans {
		d := ms(s.dur())
		switch {
		case s.Err:
		case s.Name == "serve.queue.feed":
			queue = append(queue, d)
		case s.Name == "serve.job.feed":
			job = append(job, d)
		case s.Name == "svc.open":
			open = append(open, d)
		case s.Name == "svc.flush":
			flush = append(flush, d)
		}
		if s.Parent < 0 && s.Session != "" && !s.Err {
			bySess[s.Session] = append(bySess[s.Session], s)
		}
	}
	// Front-end self time per op: the HTTP handler span, or for a stream
	// frame the client's send-to-ack span, minus the service call inside
	// it. A handler span answered 429 holds no successful call, so
	// handler spans pair with calls by containment. Stream frames
	// overlap in flight but are served in order, one successful call
	// each, so they pair by position.
	for _, ss := range bySess {
		sort.Slice(ss, func(a, b int) bool { return ss[a].Start < ss[b].Start })
		var handler, client, inner []span
		for _, s := range ss {
			switch s.Name {
			case "http.audio", "http.flush":
				handler = append(handler, s)
			case "client.chunk", "client.flush":
				client = append(client, s)
			case "svc.feed", "svc.flush":
				inner = append(inner, s)
			}
		}
		if len(handler) == 0 {
			for k := 0; k < len(client) && k < len(inner); k++ {
				self = append(self, ms(client[k].dur()-inner[k].dur()))
			}
			continue
		}
		j := 0
		for _, h := range handler {
			for j < len(inner) && inner[j].Start < h.Start {
				j++
			}
			if j < len(inner) && inner[j].End <= h.End {
				self = append(self, ms(h.dur()-inner[j].dur()))
				j++
			}
		}
	}
	return []metric{
		percentile("serve.frontend.self_ms_p50", "ms", self, 0.50),
		percentile("serve.frontend.self_ms_p99", "ms", self, 0.99),
		percentile("serve.queue_wait_ms_p50", "ms", queue, 0.50),
		percentile("serve.queue_wait_ms_p99", "ms", queue, 0.99),
		percentile("serve.job_ms_p50", "ms", job, 0.50),
		percentile("serve.job_ms_p99", "ms", job, 0.99),
		percentile("serve.open_ms_p50", "ms", open, 0.50),
		percentile("serve.flush_ms_p50", "ms", flush, 0.50),
	}
}

// stages are the /metricsz stage labels and the per-layer names they
// report under.
var stages = []struct{ label, name string }{
	{"stft", "pipeline.stft_ms_per_chunk"},
	{"enhancement", "pipeline.enhance_ms_per_chunk"},
	{"profile", "pipeline.profile_ms_per_chunk"},
	{"segmentation", "pipeline.segment_ms_per_chunk"},
}

func stageSeconds(m map[string]float64, label string) float64 {
	return m["echowrite_stage_seconds_total{stage="+label+"}"]
}

// serverMetrics are /metricsz deltas over the traced run.
func serverMetrics(before, after map[string]float64, spans []span) []metric {
	delta := func(k string) float64 { return after[k] - before[k] }
	jobs := delta("echowrite_chunks_total")
	var out []metric
	total := 0.0
	for _, s := range stages {
		d := stageSeconds(after, s.label) - stageSeconds(before, s.label)
		total += d
		out = append(out, metric{name: s.name, unit: "ms", value: 1000 * d / jobs, n: int(jobs)})
	}
	dtw := stageSeconds(after, "dtw") - stageSeconds(before, "dtw")
	total += dtw
	strokes := delta("echowrite_strokes_total")
	var jobSum float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "serve.job.") {
			jobSum += s.dur().Seconds()
		}
	}
	created, reused := delta("echowrite_engine_pool_created_total"), delta("echowrite_engine_pool_reused_total")
	return append(out,
		metric{name: "pipeline.dtw_ms_per_stroke", unit: "ms", value: 1000 * dtw / strokes, n: int(strokes)},
		metric{name: "pipeline.stft_share", unit: "share", value: (stageSeconds(after, "stft") - stageSeconds(before, "stft")) / total, n: int(jobs)},
		metric{name: "serve.accounting_share", unit: "share", value: (jobSum - total) / jobSum, n: int(jobs)},
		metric{name: "serve.pool_reuse_ratio", unit: "share", value: reused / (reused + created), n: int(reused + created)},
		metric{name: "serve.chunks_total", unit: "count", value: jobs, n: 1},
		metric{name: "serve.backpressure_total", unit: "count", value: delta("echowrite_backpressure_rejects_total"), n: 1},
		metric{name: "serve.feed_errors_total", unit: "count", value: delta("echowrite_feed_errors_total"), n: 1},
		metric{name: "serve.ws.frames_in_total", unit: "count", value: delta("echowrite_ws_frames_in_total"), n: 1},
	)
}

// reconcile checks the layer split against what the stream and the
// server measured themselves: the enhancement sub-stages plus their
// unattributed remainder against the stream's own enhancement time on
// the same windows (expected within 5%), and the served per-job
// enhancement time against the replay's (expected within 25%).
func reconcile(lr *layerStats, before, after map[string]float64) []metric {
	split := lr.split.total.Seconds() / lr.enhanceStream.Seconds()
	jobs := after["echowrite_chunks_total"] - before["echowrite_chunks_total"]
	served := (stageSeconds(after, "enhancement") - stageSeconds(before, "enhancement")) / jobs
	replayed := lr.replayEnhance.Seconds() / float64(lr.ops)
	if split < 0.95 || split > 1.05 {
		fmt.Fprintf(os.Stderr, "bench: reconcile: enhancement sub-stages sum to %.3f of the stream's own time (want within 5%%)\n", split)
	}
	if r := served / replayed; r < 0.75 || r > 1.25 {
		fmt.Fprintf(os.Stderr, "bench: reconcile: served enhancement per job is %.3f of the replay's (want within 25%%)\n", r)
	}
	return []metric{
		{name: "trace.enhance_split_ratio", unit: "ratio", value: split, n: lr.sampled},
		{name: "trace.served_replay_enhance_ratio", unit: "ratio", value: served / replayed, n: int(jobs)},
	}
}

// writeSpans writes the trace as JSON lines, one span per line; a span's
// parent is its line index.
func writeSpans(o options, spans []span) error {
	if err := os.MkdirAll(o.spans, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.spans, fmt.Sprintf("%s.s%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(spans), path)
	return nil
}
