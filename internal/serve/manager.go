package serve

import (
	"errors"
	"fmt"
	"math"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
	ewruntime "repro/internal/runtime"
	"repro/internal/stroke"
)

// Typed service errors. The HTTP front end maps these onto status codes;
// embedded callers branch with errors.Is.
var (
	// ErrBackpressure means the ingest queue is full: the service sheds
	// the chunk instead of buffering without bound. Clients retry after
	// a short delay.
	ErrBackpressure = errors.New("serve: ingest queue full")
	// ErrSessionLimit means the bounded session table is full even after
	// idle eviction.
	ErrSessionLimit = errors.New("serve: session limit reached")
	// ErrUnknownSession means the session ID was never opened, was
	// closed, or was evicted for idleness.
	ErrUnknownSession = errors.New("serve: unknown session")
	// ErrClosed means the manager has been shut down.
	ErrClosed = errors.New("serve: manager closed")
)

// Config parameterizes a Manager. The zero value is usable: every field
// has a serving-appropriate default.
type Config struct {
	// Engines builds recognizer engines for the pool (nil: default
	// pipeline configuration).
	Engines EngineFactory
	// Recognizer, when set, produces word candidates from each session's
	// accumulated stroke sequence on Flush. It is shared across sessions
	// and must therefore be used read-only (infer.Recognizer is).
	Recognizer *infer.Recognizer
	// MaxSessions bounds the session table (default 64).
	MaxSessions int
	// IdleTimeout is how long a session may sit without a Feed before
	// EvictIdle may reclaim it (default 2 minutes; <0 disables).
	IdleTimeout time.Duration
	// Workers is the processing goroutine count (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the shared ingest queue; a full queue yields
	// ErrBackpressure (default 4×Workers).
	QueueDepth int
	// Prewarm engines built at startup (default min(2, MaxSessions)).
	Prewarm int
	// MaxChunk caps buffered samples per Feed call per session
	// (default pipeline.DefaultMaxChunk).
	MaxChunk int
	// MaxWindow bounds each session's retained spectrogram columns
	// (default 0: the stream's own 1024-frame default).
	MaxWindow int
	// Clock supplies time for idle accounting (default time.Now); tests
	// inject a fake.
	Clock func() time.Time
	// JobStartHook, when set, runs at the top of every worker job with
	// the job's session ID. It exists for fault injection: the stress
	// suite uses it to stall chosen sessions, saturate queues
	// deterministically, and shake goroutine interleavings. Production
	// configs leave it nil.
	JobStartHook func(sessionID string)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = stdruntime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.Prewarm <= 0 {
		c.Prewarm = 2
	}
	if c.Prewarm > c.MaxSessions {
		c.Prewarm = c.MaxSessions
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// latencyRing bounds how many recent feed latencies the stats snapshot
// summarizes.
const latencyRing = 4096

// feedLatencyBuckets are the upper bounds (milliseconds) of the
// /metricsz feed-latency histogram: octaves from 0.25 ms to 512 ms, so
// both a warm sub-millisecond feed and a cold-engine or contended-shard
// stall land in informative buckets.
var feedLatencyBuckets = mustExpBuckets(0.25, 2, 12)

func mustExpBuckets(start, factor float64, n int) []float64 {
	b, err := expose.ExpBuckets(start, factor, n)
	if err != nil {
		panic(err)
	}
	return b
}

// Manager owns per-session stream state keyed by session ID and pushes
// every chunk through a bounded worker pool. Feed and Flush are
// synchronous: they enqueue a job and wait for its result, so a caller
// that feeds one session sequentially observes detections in order.
// Distinct sessions are processed concurrently up to Workers.
type Manager struct {
	cfg  Config
	pool *EnginePool
	jobs chan *job
	quit chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*session // guarded by mu
	nextID   uint64              // guarded by mu
	closed   bool                // guarded by mu

	chunks     atomic.Uint64
	detections atomic.Uint64
	rejected   atomic.Uint64
	evictions  atomic.Uint64
	feedErrors atomic.Uint64
	stages     ewruntime.SharedBreakdown

	latMu sync.Mutex
	lat   *metrics.Reservoir // guarded by latMu

	// latHist is the cumulative feed-latency histogram behind /metricsz;
	// internally atomic, so no lock is shared with the reservoir.
	latHist *expose.Histogram

	// testJobStart, when set, runs at the top of every worker job; tests
	// use it to hold workers and saturate the queue deterministically.
	testJobStart func()
}

// session serializes all pipeline work for one client. The mutex is held
// for the duration of each job, so a session's stream never runs on two
// workers at once.
type session struct {
	id string

	mu     sync.Mutex
	stream *pipeline.Stream // guarded by mu
	seq    stroke.Sequence  // guarded by mu
	// pendingStages accumulates stream stage-time deltas since the last
	// emitted stroke, so the shared breakdown attributes quiet-feed cost
	// to the strokes it ultimately produced.
	pendingStages pipeline.StageTimings // guarded by mu
	lastStages    pipeline.StageTimings // guarded by mu
	closed        bool                  // guarded by mu

	lastActive atomic.Int64 // unix nanoseconds
}

type job struct {
	sess  *session
	chunk []float64
	flush bool
	reply chan jobResult
}

type jobResult struct {
	dets []pipeline.Detection
	err  error
}

// NewManager validates cfg, pre-warms the engine pool and starts the
// worker goroutines. Call Shutdown to release them.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	pool, err := NewEnginePool(cfg.Engines, cfg.Prewarm)
	if err != nil {
		return nil, err
	}
	lat, err := metrics.NewReservoir(latencyRing)
	if err != nil {
		return nil, err
	}
	hist, err := expose.NewHistogram(feedLatencyBuckets)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:      cfg,
		pool:     pool,
		jobs:     make(chan *job, cfg.QueueDepth),
		quit:     make(chan struct{}),
		sessions: make(map[string]*session),
		lat:      lat,
		latHist:  hist,
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m, nil
}

// Open registers a new session and returns its ID. When the table is
// full it first attempts idle eviction; if the table is still full the
// call fails with ErrSessionLimit.
func (m *Manager) Open() (string, error) {
	return m.open("")
}

// OpenWithID registers a session under a caller-chosen ID — the hook a
// ShardedManager uses to mint IDs that hash to the shard it routes
// through. The ID must be non-empty and not currently in the table.
func (m *Manager) OpenWithID(id string) error {
	if id == "" {
		return fmt.Errorf("serve: empty session id")
	}
	_, err := m.open(id)
	return err
}

// open shares the admission path of Open and OpenWithID: an empty id
// means "mint the next sequential one".
func (m *Manager) open(id string) (string, error) {
	for attempt := 0; ; attempt++ {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return "", ErrClosed
		}
		if id != "" {
			if _, dup := m.sessions[id]; dup {
				m.mu.Unlock()
				return "", fmt.Errorf("serve: duplicate session id %q", id)
			}
		}
		if len(m.sessions) < m.cfg.MaxSessions {
			break // holds m.mu
		}
		m.mu.Unlock()
		if attempt > 0 || m.EvictIdle() == 0 {
			return "", ErrSessionLimit
		}
	}
	if id == "" {
		m.nextID++
		id = fmt.Sprintf("s%06d", m.nextID)
	}
	sess := &session{id: id}
	sess.lastActive.Store(m.cfg.Clock().UnixNano())
	m.sessions[id] = sess
	m.mu.Unlock()

	// Engine checkout happens outside m.mu: building a cold engine is
	// the slow path and must not block unrelated sessions.
	st, err := m.pool.Get()
	if err != nil {
		m.mu.Lock()
		delete(m.sessions, id)
		m.mu.Unlock()
		return "", err
	}
	st.MaxChunk = m.cfg.MaxChunk
	st.MaxWindow = m.cfg.MaxWindow
	sess.mu.Lock()
	sess.stream = st
	sess.mu.Unlock()
	return id, nil
}

// Feed pushes one audio chunk into a session and returns the strokes
// that completed. A full ingest queue yields ErrBackpressure without
// touching session state.
func (m *Manager) Feed(id string, chunk []float64) ([]pipeline.Detection, error) {
	sess, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	return m.submit(sess, chunk, false)
}

// Flush drains a session's partial frame, returning the final
// detections plus word candidates for the accumulated stroke sequence
// (when a Recognizer is configured). The sequence resets afterwards so
// the next word starts clean; the session itself stays open.
func (m *Manager) Flush(id string) ([]pipeline.Detection, []infer.Candidate, error) {
	sess, err := m.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	dets, err := m.submit(sess, nil, true)
	if err != nil {
		return nil, nil, err
	}
	sess.mu.Lock()
	seq := sess.seq
	sess.seq = nil
	sess.mu.Unlock()
	if m.cfg.Recognizer == nil || len(seq) == 0 {
		return dets, nil, nil
	}
	cands, err := m.cfg.Recognizer.Recognize(seq)
	if err != nil {
		return dets, nil, fmt.Errorf("serve: word candidates: %w", err)
	}
	return dets, cands, nil
}

// Close removes a session and returns its engine to the pool.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	sess, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if !ok {
		return ErrUnknownSession
	}
	m.release(sess)
	return nil
}

// Touch refreshes a session's idle clock without submitting work. The
// streaming front end calls it so a live connection counts as session
// activity for EvictIdle even when no audio is flowing.
func (m *Manager) Touch(id string) error {
	sess, err := m.lookup(id)
	if err != nil {
		return err
	}
	sess.lastActive.Store(m.cfg.Clock().UnixNano())
	return nil
}

// EvictIdle reclaims sessions idle past IdleTimeout, returning how many
// were evicted. The HTTP server calls this on a timer; Open calls it
// when the table is full.
func (m *Manager) EvictIdle() int {
	if m.cfg.IdleTimeout <= 0 {
		return 0
	}
	cutoff := m.cfg.Clock().Add(-m.cfg.IdleTimeout).UnixNano()
	m.mu.Lock()
	var idle []*session
	for id, sess := range m.sessions {
		if sess.lastActive.Load() < cutoff {
			idle = append(idle, sess)
			delete(m.sessions, id)
		}
	}
	m.mu.Unlock()
	for _, sess := range idle {
		m.release(sess)
	}
	if len(idle) > 0 {
		m.evictions.Add(uint64(len(idle)))
	}
	return len(idle)
}

// Shutdown closes every session, stops the workers and waits for them.
// Queued jobs are abandoned; their callers receive ErrClosed.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var open []*session
	for id, sess := range m.sessions {
		open = append(open, sess)
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	for _, sess := range open {
		m.release(sess)
	}
	close(m.quit)
	m.wg.Wait()
}

func (m *Manager) lookup(id string) (*session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	sess, ok := m.sessions[id]
	if !ok {
		return nil, ErrUnknownSession
	}
	return sess, nil
}

// release marks a session closed and checks its stream back in. It must
// be called after the session left the table, so no new jobs target it;
// an in-flight job finishes first because both sides take sess.mu.
func (m *Manager) release(sess *session) {
	sess.mu.Lock()
	if !sess.closed {
		sess.closed = true
		if sess.stream != nil {
			m.pool.Put(sess.stream)
			sess.stream = nil
		}
	}
	sess.mu.Unlock()
}

// submit enqueues one job with admission control and waits for it.
func (m *Manager) submit(sess *session, chunk []float64, flush bool) ([]pipeline.Detection, error) {
	j := &job{sess: sess, chunk: chunk, flush: flush, reply: make(chan jobResult, 1)}
	select {
	case m.jobs <- j:
	default:
		m.rejected.Add(1)
		return nil, ErrBackpressure
	}
	select {
	case r := <-j.reply:
		return r.dets, r.err
	case <-m.quit:
		return nil, ErrClosed
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case j := <-m.jobs:
			m.runJob(j)
		case <-m.quit:
			return
		}
	}
}

func (m *Manager) runJob(j *job) {
	if m.testJobStart != nil {
		m.testJobStart()
	}
	if m.cfg.JobStartHook != nil {
		m.cfg.JobStartHook(j.sess.id)
	}
	sess := j.sess
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed || sess.stream == nil {
		// ew:allow lockhold: reply has capacity 1 and exactly one writer
		// per job, so this send never blocks.
		j.reply <- jobResult{err: ErrUnknownSession}
		return
	}
	start := time.Now()
	var (
		dets []pipeline.Detection
		err  error
	)
	if j.flush {
		// ew:allow lockhold: holding sess.mu across the DSP pass is the
		// design — the per-session lock serializes the stream without
		// stalling other sessions, which lock only their own mutexes.
		dets, err = sess.stream.Flush()
	} else {
		// ew:allow lockhold: same per-session serialization as Flush.
		dets, err = sess.stream.Feed(j.chunk)
	}
	m.finishJob(j, start, dets, err)
}

// finishJob is the accounting and reply tail every processed job goes
// through. Latency and stage
// deltas are recorded on the error branch too: a failed feed has
// already spent real pipeline time (the stream accrues its hop-loop
// cost on every exit), and hiding it made error storms look free on
// /metricsz while their cost bled into the next successful feed's
// attribution. Successful-chunk and detection counters stay
// success-only; errors land in feedErrors (echowrite_feed_errors_total).
//
// ew:holds sess.mu — callers invoke this with the job's session locked.
func (m *Manager) finishJob(j *job, start time.Time, dets []pipeline.Detection, err error) {
	sess := j.sess
	m.recordLatency(time.Since(start))
	m.accountStages(sess, len(dets))
	if err == nil {
		m.chunks.Add(1)
		for _, d := range dets {
			sess.seq = append(sess.seq, d.Stroke)
		}
		if len(dets) > 0 {
			m.detections.Add(uint64(len(dets)))
		}
	} else {
		m.feedErrors.Add(1)
	}
	sess.lastActive.Store(m.cfg.Clock().UnixNano())
	// ew:allow lockhold: reply has capacity 1 and exactly one writer per
	// job, so this send never blocks.
	j.reply <- jobResult{dets: dets, err: err}
}

// accountStages folds the stream's stage-time delta since the previous
// job into the session's pending bucket, and flushes the bucket into the
// shared breakdown whenever strokes completed — so per-stroke stage
// means include the quiet feeds that led up to each stroke.
//
// ew:holds sess.mu — only runJob calls this, with the session locked.
func (m *Manager) accountStages(sess *session, strokes int) {
	t := sess.stream.Timings()
	last := sess.lastStages
	sess.lastStages = t
	sess.pendingStages.STFT += t.STFT - last.STFT
	sess.pendingStages.Enhancement += t.Enhancement - last.Enhancement
	sess.pendingStages.Profile += t.Profile - last.Profile
	sess.pendingStages.Segmentation += t.Segmentation - last.Segmentation
	sess.pendingStages.DTW += t.DTW - last.DTW
	if strokes > 0 {
		m.stages.Add(sess.pendingStages, strokes)
		sess.pendingStages = pipeline.StageTimings{}
	}
}

func (m *Manager) recordLatency(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	m.latMu.Lock()
	m.lat.Add(ms)
	m.latMu.Unlock()
	m.latHist.Observe(ms)
}

// latencySamples copies the retained feed-latency samples; the sharded
// aggregator pools them across shards for merged quantiles.
func (m *Manager) latencySamples() []float64 {
	m.latMu.Lock()
	defer m.latMu.Unlock()
	return m.lat.Samples()
}

// MaxChunk reports the per-feed sample cap admission control enforces
// (the HTTP front end derives its body limit from it).
func (m *Manager) MaxChunk() int {
	if m.cfg.MaxChunk > 0 {
		return m.cfg.MaxChunk
	}
	return pipeline.DefaultMaxChunk
}

// StageMillis is the per-stroke stage cost view exposed by Snapshot,
// in milliseconds.
type StageMillis struct {
	STFT         float64 `json:"stft"`
	Enhancement  float64 `json:"enhancement"`
	Profile      float64 `json:"profile"`
	Segmentation float64 `json:"segmentation"`
	DTW          float64 `json:"dtw"`
	Total        float64 `json:"total"`
	Strokes      int     `json:"strokes"`
}

// ShardStats is one shard's contribution to an aggregated snapshot:
// enough to spot a hot shard (deep queue, heavy backpressure) from
// /statsz without scraping each shard separately.
type ShardStats struct {
	ActiveSessions int    `json:"active_sessions"`
	QueueLen       int    `json:"queue_len"`
	QueueCap       int    `json:"queue_cap"`
	Chunks         uint64 `json:"chunks_processed"`
	Detections     uint64 `json:"detections"`
	Backpressure   uint64 `json:"backpressure_rejects"`
	FeedErrors     uint64 `json:"feed_errors"`
	Evictions      uint64 `json:"idle_evictions"`
}

// Stats is the /statsz snapshot: service health, pool occupancy,
// throughput counters, feed-latency quantiles and per-stroke stage cost
// aggregated across all sessions. For a ShardedManager the top-level
// fields aggregate every shard (latency quantiles are merged over the
// pooled per-shard samples) and Shards carries the per-shard view.
type Stats struct {
	ActiveSessions int                    `json:"active_sessions"`
	MaxSessions    int                    `json:"max_sessions"`
	Workers        int                    `json:"workers"`
	QueueLen       int                    `json:"queue_len"`
	QueueCap       int                    `json:"queue_cap"`
	Pool           PoolStats              `json:"engine_pool"`
	Chunks         uint64                 `json:"chunks_processed"`
	Detections     uint64                 `json:"detections"`
	Backpressure   uint64                 `json:"backpressure_rejects"`
	FeedErrors     uint64                 `json:"feed_errors"`
	Evictions      uint64                 `json:"idle_evictions"`
	FeedLatencyMs  metrics.LatencySummary `json:"feed_latency_ms"`
	PerStroke      StageMillis            `json:"per_stroke_ms"`
	Shards         []ShardStats           `json:"shards,omitempty"`
}

// Snapshot assembles a consistent-enough stats view for monitoring. A
// single Manager reports itself as one shard, so /statsz and /metricsz
// have the same shape whether or not the service is sharded.
func (m *Manager) Snapshot() Stats {
	sv := m.shardView()
	return Stats{
		ActiveSessions: sv.ActiveSessions,
		MaxSessions:    m.cfg.MaxSessions,
		Workers:        m.cfg.Workers,
		QueueLen:       sv.QueueLen,
		QueueCap:       sv.QueueCap,
		Pool:           m.pool.Stats(),
		Chunks:         sv.Chunks,
		Detections:     sv.Detections,
		Backpressure:   sv.Backpressure,
		FeedErrors:     sv.FeedErrors,
		Evictions:      sv.Evictions,
		FeedLatencyMs:  summarizeFeedLatency(m.latencySamples()),
		PerStroke:      stageMillis(m.stages.Snapshot()),
		Shards:         []ShardStats{sv},
	}
}

// shardView reads this manager's counters as one shard's contribution —
// cheap (atomic loads plus a brief table lock), with no latency sorting,
// so the /metricsz collectors can call it on every scrape.
func (m *Manager) shardView() ShardStats {
	m.mu.Lock()
	active := len(m.sessions)
	m.mu.Unlock()
	return ShardStats{
		ActiveSessions: active,
		QueueLen:       len(m.jobs),
		QueueCap:       cap(m.jobs),
		Chunks:         m.chunks.Load(),
		Detections:     m.detections.Load(),
		Backpressure:   m.rejected.Load(),
		FeedErrors:     m.feedErrors.Load(),
		Evictions:      m.evictions.Load(),
	}
}

// shardStats implements metricsSource for a single manager: one shard.
func (m *Manager) shardStats() []ShardStats { return []ShardStats{m.shardView()} }

// feedLatencyHistograms implements metricsSource: one histogram per
// shard, index-aligned with shardStats.
func (m *Manager) feedLatencyHistograms() []*expose.Histogram {
	return []*expose.Histogram{m.latHist}
}

// stageTotals implements metricsSource: cumulative stage time and
// stroke count since startup.
func (m *Manager) stageTotals() ewruntime.StageBreakdown { return m.stages.Snapshot() }

// limits implements metricsSource: the configured service-wide bounds.
func (m *Manager) limits() (maxSessions, workers int) { return m.cfg.MaxSessions, m.cfg.Workers }

// poolStats implements metricsSource.
func (m *Manager) poolStats() PoolStats { return m.pool.Stats() }

// stageMillis converts an aggregated stage breakdown into the per-stroke
// millisecond view /statsz exposes (zero value when no strokes yet).
func stageMillis(b ewruntime.StageBreakdown) StageMillis {
	per, err := b.PerStroke()
	if err != nil {
		return StageMillis{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return StageMillis{
		STFT:         ms(per.STFT),
		Enhancement:  ms(per.Enhancement),
		Profile:      ms(per.Profile),
		Segmentation: ms(per.Segmentation),
		DTW:          ms(per.DTW),
		Total:        ms(per.Total()),
		Strokes:      b.Strokes,
	}
}

// summarizeFeedLatency is the single choke point where feed-latency
// samples become the quantile triple /statsz serves: with no samples
// (zero traffic) the quantiles are NaN, which encoding/json rejects —
// the encoder would abort mid-body and the scrape would see truncated
// JSON — so NaN is reported as zero here, once, for both the single
// Manager and the ShardedManager aggregation path.
func summarizeFeedLatency(groups ...[]float64) metrics.LatencySummary {
	s := metrics.MergeLatencies(groups...)
	if math.IsNaN(s.P50) {
		s.P50 = 0
	}
	if math.IsNaN(s.P95) {
		s.P95 = 0
	}
	if math.IsNaN(s.P99) {
		s.P99 = 0
	}
	return s
}
