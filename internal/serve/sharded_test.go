package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil/leak"
)

// TestShardedRoutingStable: every operation on an ID must land on the
// same shard, so a session opened through the sharded front door is
// reachable for its whole lifecycle.
func TestShardedRoutingStable(t *testing.T) {
	leak.Check(t)
	sm, err := NewShardedManager(Config{MaxSessions: 64, Workers: 4, Prewarm: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()

	ids := make([]string, 0, 16)
	for i := 0; i < 16; i++ {
		id, err := sm.Open()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate session id %q across shards", id)
		}
		seen[id] = true
		// The owning shard (and only it) knows the session.
		owner := sm.ShardFor(id)
		for i, m := range sm.shards {
			_, err := m.lookup(id)
			if i == owner && err != nil {
				t.Errorf("owning shard %d does not know %q: %v", i, id, err)
			}
			if i != owner && !errors.Is(err, ErrUnknownSession) {
				t.Errorf("shard %d unexpectedly knows %q", i, id)
			}
		}
		if _, err := sm.Feed(id, make([]float64, 256)); err != nil {
			t.Errorf("feed %q: %v", id, err)
		}
	}

	st := sm.Snapshot()
	if st.ActiveSessions != 16 {
		t.Errorf("aggregated active sessions = %d, want 16", st.ActiveSessions)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("snapshot shards = %d, want 4", len(st.Shards))
	}
	sum := 0
	for _, sh := range st.Shards {
		sum += sh.ActiveSessions
	}
	if sum != 16 {
		t.Errorf("per-shard active sessions sum to %d, want 16", sum)
	}
	if st.Chunks != 16 {
		t.Errorf("aggregated chunks = %d, want 16", st.Chunks)
	}
	if st.FeedLatencyMs.P50 <= 0 {
		t.Errorf("merged latency quantiles empty: %+v", st.FeedLatencyMs)
	}

	for _, id := range ids {
		if err := sm.Close(id); err != nil {
			t.Errorf("close %q: %v", id, err)
		}
		if err := sm.Close(id); !errors.Is(err, ErrUnknownSession) {
			t.Errorf("double close error = %v, want ErrUnknownSession", err)
		}
	}
	if st := sm.Snapshot(); st.ActiveSessions != 0 {
		t.Errorf("sessions left after close: %d", st.ActiveSessions)
	}
}

// TestShardedOpenRetriesFullShard: a single full shard must not refuse
// the whole service while other shards have room.
func TestShardedOpenRetriesFullShard(t *testing.T) {
	leak.Check(t)
	// 4 shards × 2 sessions each. IdleTimeout <0 disables eviction so a
	// full shard stays full.
	sm, err := NewShardedManager(Config{
		MaxSessions: 8, Workers: 4, Prewarm: 1, IdleTimeout: -1,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()

	opened := 0
	for {
		_, err := sm.Open()
		if err != nil {
			if !errors.Is(err, ErrSessionLimit) {
				t.Fatalf("open error = %v, want ErrSessionLimit", err)
			}
			break
		}
		opened++
		if opened > 8 {
			t.Fatal("opened more sessions than the service-wide bound")
		}
	}
	// Hash skew can fill one shard before the global total is reached,
	// but the retry loop must get well past a single shard's capacity.
	if opened < 5 {
		t.Errorf("opened only %d sessions before limit; retry across shards broken", opened)
	}
}

// TestShardedEvictionPerShard: idle eviction sweeps every shard and the
// per-shard counters sum to the aggregate.
func TestShardedEvictionPerShard(t *testing.T) {
	leak.Check(t)
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	sm, err := NewShardedManager(Config{
		MaxSessions: 32, Workers: 4, Prewarm: 1,
		IdleTimeout: time.Minute, Clock: clock,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()

	var stale, fresh []string
	for i := 0; i < 6; i++ {
		id, err := sm.Open()
		if err != nil {
			t.Fatal(err)
		}
		stale = append(stale, id)
	}
	mu.Lock()
	now = now.Add(45 * time.Second)
	mu.Unlock()
	for i := 0; i < 3; i++ {
		id, err := sm.Open()
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, id)
	}
	mu.Lock()
	now = now.Add(30 * time.Second) // stale 75 s idle, fresh 30 s
	mu.Unlock()

	if n := sm.EvictIdle(); n != len(stale) {
		t.Fatalf("evicted %d, want %d", n, len(stale))
	}
	for _, id := range stale {
		if _, err := sm.Feed(id, make([]float64, 64)); !errors.Is(err, ErrUnknownSession) {
			t.Errorf("stale %q still alive: %v", id, err)
		}
	}
	for _, id := range fresh {
		if _, err := sm.Feed(id, make([]float64, 64)); err != nil {
			t.Errorf("fresh %q evicted: %v", id, err)
		}
	}
	st := sm.Snapshot()
	var perShard uint64
	for _, sh := range st.Shards {
		perShard += sh.Evictions
	}
	if st.Evictions != uint64(len(stale)) || perShard != st.Evictions {
		t.Errorf("evictions aggregate %d, per-shard sum %d, want %d",
			st.Evictions, perShard, len(stale))
	}
}

// TestShardedSplitKeepsTotals: the per-shard Workers and QueueDepth
// splits must add up to the configured totals, with the remainder on
// the first shards, instead of flooring each share and dropping it.
func TestShardedSplitKeepsTotals(t *testing.T) {
	leak.Check(t)
	sm, err := NewShardedManager(Config{Workers: 5, QueueDepth: 11, Prewarm: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()
	st := sm.Snapshot()
	if st.Workers != 5 || st.QueueCap != 11 {
		t.Errorf("snapshot workers = %d, queue cap = %d; want the configured 5 and 11", st.Workers, st.QueueCap)
	}
	wantCaps := []int{3, 3, 3, 2}
	for i, sh := range st.Shards {
		if sh.QueueCap != wantCaps[i] {
			t.Errorf("shard %d queue cap = %d, want %d", i, sh.QueueCap, wantCaps[i])
		}
	}
}

func TestShardedShutdown(t *testing.T) {
	leak.Check(t)
	sm, err := NewShardedManager(Config{MaxSessions: 8, Workers: 2, Prewarm: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	id, err := sm.Open()
	if err != nil {
		t.Fatal(err)
	}
	sm.Shutdown()
	sm.Shutdown() // idempotent per shard
	if _, err := sm.Open(); !errors.Is(err, ErrClosed) {
		t.Errorf("open after shutdown error = %v, want ErrClosed", err)
	}
	if _, err := sm.Feed(id, make([]float64, 8)); !errors.Is(err, ErrClosed) {
		t.Errorf("feed after shutdown error = %v, want ErrClosed", err)
	}
}

// TestShardedStatszZeroTraffic is the NaN regression gate: with no
// traffic every shard's latency histogram is empty, and encoding/json
// aborts on NaN — a quantile helper that returned NaN for an empty view
// would surface here as truncated /statsz JSON. The decoder runs strict
// so a half-written body fails.
func TestShardedStatszZeroTraffic(t *testing.T) {
	leak.Check(t)
	sm, err := NewShardedManager(Config{MaxSessions: 8, Workers: 2, Prewarm: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()
	ts := httptest.NewServer(NewServer(sm).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statsz status = %d", resp.StatusCode)
	}
	var st Stats
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("zero-traffic /statsz is not valid JSON: %v", err)
	}
	if st.FeedLatencyMs.P50 != 0 || st.FeedLatencyMs.P95 != 0 || st.FeedLatencyMs.P99 != 0 {
		t.Errorf("zero-traffic quantiles = %+v, want zeros", st.FeedLatencyMs)
	}
	if len(st.Shards) != 4 {
		t.Errorf("shards = %d, want 4", len(st.Shards))
	}

	// The direct (non-HTTP) snapshot must be encodable too — embedders
	// serialize it themselves.
	if err := json.NewEncoder(io.Discard).Encode(sm.Snapshot()); err != nil {
		t.Errorf("Snapshot not JSON-encodable: %v", err)
	}
}
