package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
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

// Config parameterizes a ShardedManager. The zero value is usable: every
// field has a serving-appropriate default. MaxSessions, Workers,
// QueueDepth and Prewarm are service-wide totals that NewShardedManager
// splits across the shards.
type Config struct {
	// Engines builds recognizer engines for the pool (nil: default
	// pipeline configuration).
	Engines EngineFactory
	// Recognizer, when set, produces word candidates from each session's
	// accumulated stroke sequence on Flush. It is shared across sessions
	// and must therefore be used read-only (infer.Recognizer is).
	Recognizer *infer.Recognizer
	// MaxSessions bounds the open sessions (default 64).
	MaxSessions int
	// IdleTimeout is how long a session may sit without a Feed before
	// EvictIdle may reclaim it (default 2 minutes; <0 disables).
	IdleTimeout time.Duration
	// Workers bounds the jobs that run at once; each runs on the
	// goroutine that called Feed or Flush (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the jobs that wait for one of those slots; a job
	// beyond it yields ErrBackpressure (default 4×Workers).
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
	// JobStartHook, when set, runs with the job's session ID when a job
	// has taken a slot and is about to lock its session. It exists for
	// fault injection: the stress suite uses it to stall chosen sessions,
	// saturate queues deterministically, and shake goroutine
	// interleavings. Production configs leave it nil.
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
		c.Workers = runtime.GOMAXPROCS(0)
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

// feedLatencyBuckets are the upper bounds (milliseconds) of the feed-latency
// histogram behind both /metricsz and the /statsz quantiles: octaves
// from 0.25 ms to 512 ms, so both a warm sub-millisecond feed and a
// cold-engine or contended-shard stall land in informative buckets.
var feedLatencyBuckets = mustExpBuckets(0.25, 2, 12)

func mustExpBuckets(start, factor float64, n int) []float64 {
	b, err := expose.ExpBuckets(start, factor, n)
	if err != nil {
		panic(err)
	}
	return b
}

// shard is one partition of a ShardedManager. It owns everything its
// sessions touch: the session table, its job-slot accounting, an
// EnginePool, the counters and the feed-latency histogram, so no lock or
// channel is shared with another shard. A job runs on the goroutine that
// asked for it, so a caller that feeds one session sequentially observes
// detections in order. Distinct sessions run concurrently up to
// cfg.Workers.
type shard struct {
	cfg  Config // this shard's split of the service totals
	pool *EnginePool

	mu       sync.Mutex
	sessions map[string]*session // guarded by mu
	closed   bool                // guarded by mu
	// running counts jobs holding one of the cfg.Workers slots and
	// waiting the admitted jobs without one; slotFreed (on mu) wakes a
	// waiter when a slot frees or the shard shuts down.
	running, waiting int // guarded by mu
	slotFreed        sync.Cond

	chunks     atomic.Uint64
	detections atomic.Uint64
	rejected   atomic.Uint64
	evictions  atomic.Uint64
	feedErrors atomic.Uint64

	// Stage ledger: nanoseconds every job on this shard spent in each
	// pipeline stage, the stream's Timings() delta across the job.
	stftNs, enhanceNs, profileNs, segmentNs, dtwNs atomic.Int64

	// latHist records every processed job's latency; /metricsz renders
	// it and /statsz reads its quantiles. It is internally atomic.
	latHist *expose.Histogram
}

// session serializes all pipeline work for one client. The mutex is held
// for the duration of each job, so a session's stream never runs on two
// goroutines at once.
type session struct {
	id string

	mu     sync.Mutex
	stream *pipeline.Stream // guarded by mu
	seq    stroke.Sequence  // guarded by mu
	closed bool             // guarded by mu

	lastActive atomic.Int64 // unix nanoseconds
}

// newShard pre-warms the shard's engine pool. cfg must already carry
// defaults and the shard's split of the totals.
func newShard(cfg Config) (*shard, error) {
	pool, err := NewEnginePool(cfg.Engines, cfg.Prewarm)
	if err != nil {
		return nil, err
	}
	hist, err := expose.NewHistogram(feedLatencyBuckets)
	if err != nil {
		return nil, err
	}
	m := &shard{
		cfg:      cfg,
		pool:     pool,
		sessions: make(map[string]*session),
		latHist:  hist,
	}
	m.slotFreed.L = &m.mu
	return m, nil
}

// open registers a session under id, which the caller minted fresh.
// When the table is full it first attempts idle eviction; if the table
// is still full the call fails with ErrSessionLimit.
func (m *shard) open(id string) error {
	for attempt := 0; ; attempt++ {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return ErrClosed
		}
		if len(m.sessions) < m.cfg.MaxSessions {
			break // holds m.mu
		}
		m.mu.Unlock()
		if attempt > 0 || m.evictIdle() == 0 {
			return ErrSessionLimit
		}
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
		return err
	}
	st.MaxChunk = m.cfg.MaxChunk
	st.MaxWindow = m.cfg.MaxWindow
	sess.mu.Lock()
	sess.stream = st
	sess.mu.Unlock()
	return nil
}

// close removes a session and returns its engine to the pool.
func (m *shard) close(id string) error {
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

// evictIdle reclaims sessions idle past IdleTimeout and reports how
// many it evicted.
func (m *shard) evictIdle() int {
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

// shutdown closes every session and refuses further jobs. Jobs still
// waiting for a slot return ErrClosed; a running job finishes first,
// because release takes its session's lock.
func (m *shard) shutdown() {
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
	m.slotFreed.Broadcast()
	for _, sess := range open {
		m.release(sess)
	}
}

func (m *shard) lookup(id string) (*session, error) {
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
func (m *shard) release(sess *session) {
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

// run executes one job on the caller's goroutine: a Feed of chunk, or,
// when flush is set, a Flush that also takes the session's stroke
// sequence for word inference. Admission is refused with ErrBackpressure
// once Workers jobs run and QueueDepth more wait for a slot. A freed
// slot goes to whichever admitted caller takes m.mu first, so a caller
// already on a CPU never leaves it idle while a woken waiter waits to
// be scheduled; and a caller that frees a slot with a waiter present
// yields its CPU, so the waiter runs before the freeing caller goes on
// to write its reply. The job's latency and its stage time (the
// stream's Timings() delta) are recorded on the error branch too: a
// failed feed has already spent real pipeline time, and hiding it made
// error storms look free on /metricsz while their cost bled into the
// next successful feed's attribution. Successful-chunk and detection
// counters stay success-only; errors land in feedErrors
// (echowrite_feed_errors_total).
func (m *shard) run(sess *session, chunk []float64, flush bool) (dets []pipeline.Detection, seq stroke.Sequence, err error) {
	m.mu.Lock()
	if m.running+m.waiting == m.cfg.Workers+m.cfg.QueueDepth {
		m.mu.Unlock()
		m.rejected.Add(1)
		return nil, nil, ErrBackpressure
	}
	m.waiting++
	for m.running == m.cfg.Workers && !m.closed {
		// ew:allow lockhold: Cond.Wait releases m.mu while it sleeps, so
		// no other caller queues on the lock behind this wait.
		m.slotFreed.Wait()
	}
	m.waiting--
	if m.closed {
		m.mu.Unlock()
		return nil, nil, ErrClosed
	}
	m.running++
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.running--
		yield := m.waiting > 0
		m.mu.Unlock()
		m.slotFreed.Signal()
		if yield {
			runtime.Gosched()
		}
	}()

	if m.cfg.JobStartHook != nil {
		m.cfg.JobStartHook(sess.id)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed || sess.stream == nil {
		return nil, nil, ErrUnknownSession
	}
	start := time.Now()
	before := sess.stream.Timings()
	if flush {
		// ew:allow lockhold: holding sess.mu across the DSP pass is the
		// design — the per-session lock serializes the stream without
		// stalling other sessions, which lock only their own mutexes.
		dets, err = sess.stream.Flush()
	} else {
		// ew:allow lockhold: same per-session serialization as Flush.
		dets, err = sess.stream.Feed(chunk)
	}
	m.latHist.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	after := sess.stream.Timings()
	m.stftNs.Add(int64(after.STFT - before.STFT))
	m.enhanceNs.Add(int64(after.Enhancement - before.Enhancement))
	m.profileNs.Add(int64(after.Profile - before.Profile))
	m.segmentNs.Add(int64(after.Segmentation - before.Segmentation))
	m.dtwNs.Add(int64(after.DTW - before.DTW))
	if err == nil {
		m.chunks.Add(1)
		for _, d := range dets {
			sess.seq = append(sess.seq, d.Stroke)
		}
		if len(dets) > 0 {
			m.detections.Add(uint64(len(dets)))
		}
		if flush {
			seq, sess.seq = sess.seq, nil
		}
	} else {
		m.feedErrors.Add(1)
	}
	sess.lastActive.Store(m.cfg.Clock().UnixNano())
	return dets, seq, err
}

// StageMillis is the per-stroke stage cost view exposed by Snapshot,
// in milliseconds: all pipeline time since start divided by the strokes
// detected, so quiet audio around and after strokes is charged too.
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
// aggregated across all sessions. The top-level fields aggregate every
// shard and Shards carries the per-shard view. FeedLatencyMs holds
// quantiles of the /metricsz feed-latency histograms summed over
// shards: every job since start, interpolated within the octave
// buckets, and zero before the first job.
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

// view reads the shard's counters: atomic loads plus a brief table
// lock, cheap enough for every /metricsz scrape.
func (m *shard) view() ShardStats {
	m.mu.Lock()
	active, waiting := len(m.sessions), m.waiting
	m.mu.Unlock()
	return ShardStats{
		ActiveSessions: active,
		QueueLen:       waiting,
		QueueCap:       m.cfg.QueueDepth,
		Chunks:         m.chunks.Load(),
		Detections:     m.detections.Load(),
		Backpressure:   m.rejected.Load(),
		FeedErrors:     m.feedErrors.Load(),
		Evictions:      m.evictions.Load(),
	}
}

// stageMillis divides stage totals by the strokes detected into the
// per-stroke millisecond view /statsz exposes (zero value when no
// strokes yet).
func stageMillis(t pipeline.StageTimings, strokes uint64) StageMillis {
	if strokes == 0 {
		return StageMillis{}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(strokes) }
	return StageMillis{
		STFT:         ms(t.STFT),
		Enhancement:  ms(t.Enhancement),
		Profile:      ms(t.Profile),
		Segmentation: ms(t.Segmentation),
		DTW:          ms(t.DTW),
		Total:        ms(t.Total()),
		Strokes:      int(strokes),
	}
}
