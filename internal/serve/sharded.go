package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
)

// ShardedManager is the session manager: it hash-partitions sessions
// by session ID across N independent shards. Each shard owns its own
// session table, job-slot accounting and EnginePool, so no mutex or
// channel is shared between sessions on different shards. Backpressure
// and idle eviction are per-shard: a hot shard 429s its own sessions
// while the rest of the service keeps serving. One shard is a valid
// configuration and behaves like an unsharded manager.
//
// Session IDs are minted centrally from an atomic counter and routed by
// FNV-1a hash, so any holder of an ID (HTTP handlers, load generators)
// reaches the owning shard without a routing table. Sequential counter
// values hash near-uniformly, which keeps shards balanced.
type ShardedManager struct {
	shards []*shard
	nextID atomic.Uint64
}

// ShardFor returns the index of the shard that owns (or would own) a
// session ID. Exposed for the stress/invariant test layer.
func (sm *ShardedManager) ShardFor(id string) int {
	return shardIndex(id, len(sm.shards))
}

// NumShards reports the shard count.
func (sm *ShardedManager) NumShards() int { return len(sm.shards) }

// shardIndex is FNV-1a over the ID, reduced mod n.
func shardIndex(id string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// NewShardedManager splits cfg's totals across shards and pre-warms
// each shard's engine pool; call Shutdown to release the sessions.
// shards <= 0 defaults to GOMAXPROCS. Workers and QueueDepth are
// divided with the remainder going to the first shards, so the
// per-shard values add up to the configured totals; every shard still
// gets at least one of each, so a total below the shard count is
// raised to it. MaxSessions and Prewarm are divided rounding up; under
// hash skew a single shard may therefore fill slightly before the
// service-wide session total is reached.
func NewShardedManager(cfg Config, shards int) (*ShardedManager, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg = cfg.withDefaults() // resolve totals before dividing
	sm := &ShardedManager{shards: make([]*shard, shards)}
	for i := range sm.shards {
		per := cfg
		per.MaxSessions = ceilDiv(cfg.MaxSessions, shards)
		per.Workers = splitShare(cfg.Workers, shards, i)
		per.QueueDepth = splitShare(cfg.QueueDepth, shards, i)
		per.Prewarm = ceilDiv(cfg.Prewarm, shards)
		m, err := newShard(per)
		if err != nil {
			for _, built := range sm.shards[:i] {
				built.shutdown()
			}
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		sm.shards[i] = m
	}
	return sm, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// splitShare is shard i's part of total over n shards: an even share,
// one more for the first total%n shards, and never less than one.
func splitShare(total, n, i int) int {
	share := total / n
	if i < total%n {
		share++
	}
	return max(1, share)
}

func (sm *ShardedManager) route(id string) *shard {
	return sm.shards[shardIndex(id, len(sm.shards))]
}

// Open mints a fresh session ID and opens it on the shard the ID hashes
// to. When that shard's table is full, a new ID is minted (which hashes
// elsewhere) for up to NumShards attempts before giving up with the
// shard's error — so one full shard does not refuse the whole service.
func (sm *ShardedManager) Open() (string, error) {
	var lastErr error
	for attempt := 0; attempt < len(sm.shards); attempt++ {
		id := fmt.Sprintf("s%08d", sm.nextID.Add(1))
		err := sm.route(id).open(id)
		if err == nil {
			return id, nil
		}
		lastErr = err
		if !errors.Is(err, ErrSessionLimit) {
			return "", err
		}
	}
	return "", lastErr
}

// Feed pushes one audio chunk into a session on its owning shard and
// returns the strokes that completed. A chunk over MaxChunk fails with
// pipeline.ErrOversizedChunk and a full shard queue with
// ErrBackpressure, both without touching session state.
func (sm *ShardedManager) Feed(id string, chunk []float64) ([]pipeline.Detection, error) {
	start := time.Now()
	m := sm.route(id)
	sess, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	if limit := sm.MaxChunk(); len(chunk) > limit {
		// Refused before it can take a queue slot, so a full queue cannot
		// answer it as backpressure. It counts and is timed like a feed
		// the stream refuses; Stream.Accumulate still refuses a chunk
		// that would overflow the buffered residue.
		m.feedErrors.Add(1)
		m.latHist.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		return nil, fmt.Errorf("serve: %w: %d samples in one chunk (cap %d)",
			pipeline.ErrOversizedChunk, len(chunk), limit)
	}
	dets, _, err := m.run(sess, chunk, false)
	return dets, err
}

// Flush drains a session's partial frame, returning the final
// detections plus word candidates for the accumulated stroke sequence
// (when a Recognizer is configured). The sequence resets afterwards so
// the next word starts clean; the session itself stays open.
func (sm *ShardedManager) Flush(id string) ([]pipeline.Detection, []infer.Candidate, error) {
	m := sm.route(id)
	sess, err := m.lookup(id)
	if err != nil {
		return nil, nil, err
	}
	dets, seq, err := m.run(sess, nil, true)
	if err != nil {
		return nil, nil, err
	}
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
func (sm *ShardedManager) Close(id string) error {
	return sm.route(id).close(id)
}

// Touch refreshes a session's idle clock without submitting work. The
// streaming front end calls it so a live connection counts as session
// activity for EvictIdle even when no audio is flowing.
func (sm *ShardedManager) Touch(id string) error {
	m := sm.route(id)
	sess, err := m.lookup(id)
	if err != nil {
		return err
	}
	sess.lastActive.Store(m.cfg.Clock().UnixNano())
	return nil
}

// EvictIdle reclaims sessions idle past IdleTimeout on every shard and
// returns the total evicted. The HTTP server calls this on a timer; a
// shard also calls it on itself when its table is full at Open. Each
// shard holds only its own lock during its sweep.
func (sm *ShardedManager) EvictIdle() int {
	n := 0
	for _, m := range sm.shards {
		n += m.evictIdle()
	}
	return n
}

// Shutdown closes every session on every shard, in parallel so waits
// for running jobs overlap. Jobs still waiting for a slot return
// ErrClosed. Shutdown is idempotent.
func (sm *ShardedManager) Shutdown() {
	var wg sync.WaitGroup
	for _, m := range sm.shards {
		wg.Add(1)
		go func(m *shard) {
			defer wg.Done()
			m.shutdown()
		}(m)
	}
	wg.Wait()
}

// MaxChunk reports the per-feed sample cap admission control enforces
// (the HTTP front end derives its body limit from it).
func (sm *ShardedManager) MaxChunk() int {
	if c := sm.shards[0].cfg.MaxChunk; c > 0 {
		return c
	}
	return pipeline.DefaultMaxChunk
}

// Snapshot aggregates every shard into one Stats view from the same
// reads the /metricsz collectors make: counters and occupancy sum over
// shardStats, the stage ledgers sum over shards before the per-stroke
// division by summed detections, and the feed-latency quantiles come
// from the per-shard histograms summed bucket by bucket — so /statsz
// and /metricsz are two views of the same samples.
func (sm *ShardedManager) Snapshot() Stats {
	st := Stats{
		Pool:          sm.poolStats(),
		FeedLatencyMs: latencySummary(expose.SumViews(sm.feedLatency())),
		Shards:        sm.shardStats(),
	}
	st.MaxSessions, st.Workers = sm.limits()
	for _, sv := range st.Shards {
		st.ActiveSessions += sv.ActiveSessions
		st.QueueLen += sv.QueueLen
		st.QueueCap += sv.QueueCap
		st.Chunks += sv.Chunks
		st.Detections += sv.Detections
		st.Backpressure += sv.Backpressure
		st.FeedErrors += sv.FeedErrors
		st.Evictions += sv.Evictions
	}
	st.PerStroke = stageMillis(sm.stageTotals(), st.Detections)
	return st
}

// latencySummary reads the /statsz quantile triple off a histogram view.
func latencySummary(v expose.HistView) metrics.LatencySummary {
	return metrics.LatencySummary{P50: v.Quantile(0.50), P95: v.Quantile(0.95), P99: v.Quantile(0.99)}
}

// shardStats implements metricsSource: every shard's counter view, in
// shard-index order.
func (sm *ShardedManager) shardStats() []ShardStats {
	out := make([]ShardStats, len(sm.shards))
	for i, m := range sm.shards {
		out[i] = m.view()
	}
	return out
}

// feedLatency implements metricsSource: every shard's feed-latency
// histogram view, index-aligned with shardStats.
func (sm *ShardedManager) feedLatency() []expose.HistView {
	out := make([]expose.HistView, len(sm.shards))
	for i, m := range sm.shards {
		out[i] = m.latHist.View()
	}
	return out
}

// stageTotals implements metricsSource: the shards' stage ledgers
// summed, i.e. all pipeline time every job spent since start.
func (sm *ShardedManager) stageTotals() pipeline.StageTimings {
	var t pipeline.StageTimings
	for _, m := range sm.shards {
		t.STFT += time.Duration(m.stftNs.Load())
		t.Enhancement += time.Duration(m.enhanceNs.Load())
		t.Profile += time.Duration(m.profileNs.Load())
		t.Segmentation += time.Duration(m.segmentNs.Load())
		t.DTW += time.Duration(m.dtwNs.Load())
	}
	return t
}

// limits implements metricsSource: service-wide bounds summed over the
// per-shard splits (which is what admission control actually enforces).
func (sm *ShardedManager) limits() (maxSessions, workers int) {
	for _, m := range sm.shards {
		maxSessions += m.cfg.MaxSessions
		workers += m.cfg.Workers
	}
	return maxSessions, workers
}

// poolStats implements metricsSource: pool occupancy summed over shards.
func (sm *ShardedManager) poolStats() PoolStats {
	var p PoolStats
	for _, m := range sm.shards {
		s := m.pool.Stats()
		p.Created += s.Created
		p.Reused += s.Reused
		p.Free += s.Free
	}
	return p
}
