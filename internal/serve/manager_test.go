package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/acoustic"
	"repro/internal/audio"
	"repro/internal/geom"
	"repro/internal/pipeline"
	"repro/internal/stroke"

	"repro/internal/testutil/leak"
)

// synthesizeSequence renders a multi-stroke writing in a quiet scene,
// mirroring the pipeline package's streaming tests.
func synthesizeSequence(t *testing.T, seq stroke.Sequence, seed uint64) *audio.Signal {
	t.Helper()
	var parts []geom.Trajectory
	prev, err := stroke.StartPoint(seq[0], stroke.ShapeParams{})
	if err != nil {
		t.Fatal(err)
	}
	parts = append(parts, &geom.StaticTrajectory{Pos: prev, Dur: 0.4})
	for i, st := range seq {
		start, err := stroke.StartPoint(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			parts = append(parts, &geom.StaticTrajectory{Pos: prev, Dur: 0.35})
			rep, err := geom.NewPolyTrajectory([]geom.Waypoint{
				{T: 0, Pos: prev}, {T: 1.0, Pos: start},
			})
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, rep)
		}
		tr, err := stroke.Shape(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, tr)
		prev, err = stroke.EndPoint(st, stroke.ShapeParams{})
		if err != nil {
			t.Fatal(err)
		}
	}
	parts = append(parts, &geom.StaticTrajectory{Pos: prev, Dur: 0.5})
	finger, err := geom.NewCompositeTrajectory(parts...)
	if err != nil {
		t.Fatal(err)
	}
	sc := &acoustic.Scene{
		Device:     acoustic.Mate9(),
		Env:        acoustic.StandardEnvironment(acoustic.MeetingRoom),
		Reflectors: acoustic.HandReflectors(finger),
		Duration:   finger.Duration(),
		Seed:       seed,
	}
	sig, err := sc.Synthesize()
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// TestManagerConcurrentSessionsMatchBatch is the subsystem's core
// guarantee: ≥32 concurrent sessions through one single-shard manager each
// produce exactly the detections the single-threaded batch pipeline
// yields for the same audio.
func TestManagerConcurrentSessionsMatchBatch(t *testing.T) {
	leak.Check(t)
	signals := []*audio.Signal{
		synthesizeSequence(t, stroke.Sequence{stroke.S2, stroke.S3}, 9),
		synthesizeSequence(t, stroke.Sequence{stroke.S3, stroke.S1}, 11),
	}

	// Single-threaded batch reference.
	eng, err := pipeline.NewEngine(pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]stroke.Sequence, len(signals))
	for i, sig := range signals {
		rec, err := eng.Recognize(sig)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Sequence) == 0 {
			t.Fatalf("batch reference %d found no strokes; test premise broken", i)
		}
		want[i] = rec.Sequence
	}

	const sessions = 32
	mgr, err := NewShardedManager(Config{
		MaxSessions: sessions,
		Workers:     4,
		QueueDepth:  2 * sessions,
		Prewarm:     4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()

	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		sig := signals[i%len(signals)]
		wantSeq := want[i%len(signals)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, err := mgr.Open()
			if err != nil {
				errCh <- err
				return
			}
			var got stroke.Sequence
			for off := 0; off < len(sig.Samples); off += 8192 {
				end := min(off+8192, len(sig.Samples))
				dets, err := mgr.Feed(id, sig.Samples[off:end])
				if err != nil {
					errCh <- err
					return
				}
				for _, d := range dets {
					got = append(got, d.Stroke)
				}
			}
			tail, _, err := mgr.Flush(id)
			if err != nil {
				errCh <- err
				return
			}
			for _, d := range tail {
				got = append(got, d.Stroke)
			}
			if err := mgr.Close(id); err != nil {
				errCh <- err
				return
			}
			if !got.Equal(wantSeq) {
				errCh <- errors.New("session " + id + ": got " + got.String() + ", want " + wantSeq.String())
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := mgr.Snapshot()
	if st.ActiveSessions != 0 {
		t.Errorf("sessions left open: %d", st.ActiveSessions)
	}
	if got, want := st.Detections, uint64(sessions*2); got != want {
		t.Errorf("snapshot detections = %d, want %d", got, want)
	}
	if st.Pool.Created > sessions {
		t.Errorf("pool built %d engines for %d sessions", st.Pool.Created, sessions)
	}
	if st.PerStroke.Strokes == 0 || st.PerStroke.Total <= 0 {
		t.Errorf("per-stroke stage breakdown not aggregated: %+v", st.PerStroke)
	}
	if st.FeedLatencyMs.P50 <= 0 || st.FeedLatencyMs.P99 < st.FeedLatencyMs.P50 {
		t.Errorf("implausible feed latency summary: %+v", st.FeedLatencyMs)
	}
}

// TestManagerBackpressure saturates the worker pool deterministically
// and checks admission control sheds load with ErrBackpressure instead
// of queueing without bound or deadlocking.
func TestManagerBackpressure(t *testing.T) {
	leak.Check(t)
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	mgr, err := NewShardedManager(Config{Workers: 1, QueueDepth: 1, Prewarm: 1, MaxSessions: 4,
		JobStartHook: func(string) {
			started <- struct{}{}
			<-release
		}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()

	a, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}

	chunk := make([]float64, 512)
	feedErr := make(chan error, 2)
	go func() { _, err := mgr.Feed(a, chunk); feedErr <- err }()
	<-started // the single worker now holds job 1

	go func() { _, err := mgr.Feed(b, chunk); feedErr <- err }()
	// Wait until job 2 occupies the queue slot.
	deadline := time.After(5 * time.Second)
	for mgr.Snapshot().QueueLen == 0 {
		select {
		case <-deadline:
			t.Fatal("second job never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Queue full, worker busy: admission control must reject immediately.
	if _, err := mgr.Feed(b, chunk); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("saturated feed error = %v, want ErrBackpressure", err)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-feedErr; err != nil {
			t.Errorf("queued feed %d failed: %v", i, err)
		}
	}
	if got := mgr.Snapshot().Backpressure; got != 1 {
		t.Errorf("backpressure counter = %d, want 1", got)
	}
}

func TestManagerSessionLimitAndClose(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{MaxSessions: 2, Workers: 1, Prewarm: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()

	a, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third open error = %v, want ErrSessionLimit", err)
	}
	if err := mgr.Close(a); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Open(); err != nil {
		t.Fatalf("open after close failed: %v", err)
	}
	if err := mgr.Close(a); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("double close error = %v, want ErrUnknownSession", err)
	}
	if _, err := mgr.Feed(a, make([]float64, 8)); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("feed after close error = %v, want ErrUnknownSession", err)
	}
}

func TestManagerIdleEviction(t *testing.T) {
	leak.Check(t)
	now := time.Unix(1000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}

	mgr, err := NewShardedManager(Config{
		MaxSessions: 2,
		IdleTimeout: time.Minute,
		Workers:     1,
		Prewarm:     1,
		Clock:       clock,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()

	stale, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}

	// Keep one session active past the idle horizon of the other.
	advance(45 * time.Second)
	if _, err := mgr.Feed(fresh, make([]float64, 512)); err != nil {
		t.Fatal(err)
	}
	advance(30 * time.Second) // stale idle 75 s, fresh idle 30 s

	if n := mgr.EvictIdle(); n != 1 {
		t.Fatalf("EvictIdle evicted %d sessions, want 1", n)
	}
	if _, err := mgr.Feed(stale, make([]float64, 512)); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("evicted session feed error = %v, want ErrUnknownSession", err)
	}
	if _, err := mgr.Feed(fresh, make([]float64, 512)); err != nil {
		t.Errorf("fresh session was evicted: %v", err)
	}
	st := mgr.Snapshot()
	if st.Evictions != 1 || st.ActiveSessions != 1 {
		t.Errorf("snapshot = %+v, want 1 eviction and 1 active session", st)
	}

	// A full table frees itself via idle eviction on Open.
	advance(2 * time.Minute)
	if _, err := mgr.Open(); err != nil {
		t.Errorf("open at full-but-idle table failed: %v", err)
	}
}

func TestManagerOversizedFeed(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{Workers: 1, Prewarm: 1, MaxChunk: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	id, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Feed(id, make([]float64, 5000)); !errors.Is(err, pipeline.ErrOversizedChunk) {
		t.Fatalf("oversized feed error = %v, want pipeline.ErrOversizedChunk", err)
	}
	// The session survives and accepts capped chunks.
	if _, err := mgr.Feed(id, make([]float64, 4096)); err != nil {
		t.Fatalf("in-cap feed failed: %v", err)
	}
}

// TestManagerFeedErrorAccounting pins the accounting contract for feeds
// that fail after admission: the error increments feed_errors, the
// chunk counter stays success-only, and the failed feed's latency is
// still recorded so the histogram covers everything the workers
// actually did.
func TestManagerFeedErrorAccounting(t *testing.T) {
	leak.Check(t)
	t.Run("workers", func(t *testing.T) {
		mgr, err := NewShardedManager(Config{Workers: 1, Prewarm: 1, MaxChunk: 4096}, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Shutdown()
		id, err := mgr.Open()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Feed(id, make([]float64, 2048)); err != nil {
			t.Fatalf("in-cap feed failed: %v", err)
		}
		if _, err := mgr.Feed(id, make([]float64, 5000)); !errors.Is(err, pipeline.ErrOversizedChunk) {
			t.Fatalf("oversized feed error = %v, want pipeline.ErrOversizedChunk", err)
		}
		st := mgr.Snapshot()
		if st.FeedErrors != 1 {
			t.Errorf("FeedErrors = %d, want 1", st.FeedErrors)
		}
		if st.Chunks != 1 {
			t.Errorf("Chunks = %d, want 1 (errors must not count as processed)", st.Chunks)
		}
		if got := mgr.feedLatency()[0].Count; got != 2 {
			t.Errorf("latency histogram count = %d, want 2 (failed feeds are still timed)", got)
		}
	})
}

func TestManagerShutdown(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{Workers: 2, Prewarm: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	mgr.Shutdown()
	mgr.Shutdown() // idempotent
	if _, err := mgr.Open(); !errors.Is(err, ErrClosed) {
		t.Errorf("open after shutdown error = %v, want ErrClosed", err)
	}
	if _, err := mgr.Feed(id, make([]float64, 8)); !errors.Is(err, ErrClosed) {
		t.Errorf("feed after shutdown error = %v, want ErrClosed", err)
	}
}

// TestManagerStartsNoGoroutines pins that every job runs on the
// goroutine that asked for it: an open manager that has served a feed
// holds no goroutine of its own. The Shutdown cleanup is registered
// before leak.Check, so the check runs while the manager is still open.
func TestManagerStartsNoGoroutines(t *testing.T) {
	var mgr *ShardedManager
	t.Cleanup(func() {
		if mgr != nil {
			mgr.Shutdown()
		}
	})
	leak.Check(t)
	var err error
	mgr, err = NewShardedManager(Config{Workers: 8, Prewarm: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	id, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Feed(id, make([]float64, 512)); err != nil {
		t.Fatal(err)
	}
}

// TestManagerShutdownWithWaitingJob shuts a shard down while one job
// runs (stalled in JobStartHook) and a second waits for the only slot:
// the waiting caller must get ErrClosed at once, and the stalled one,
// once released, must find its session gone.
func TestManagerShutdownWithWaitingJob(t *testing.T) {
	leak.Check(t)
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unstall := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unstall) // a failed assertion must not strand the stalled job
	mgr, err := NewShardedManager(Config{Workers: 1, QueueDepth: 1, Prewarm: 1, MaxSessions: 2,
		JobStartHook: func(string) {
			started <- struct{}{}
			<-release
		}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	a, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}

	chunk := make([]float64, 512)
	running := make(chan error, 1)
	go func() { _, err := mgr.Feed(a, chunk); running <- err }()
	<-started
	waiting := make(chan error, 1)
	go func() { _, err := mgr.Feed(b, chunk); waiting <- err }()
	deadline := time.After(5 * time.Second)
	for mgr.Snapshot().QueueLen != 1 {
		select {
		case <-deadline:
			t.Fatal("second job never waited for the slot")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	mgr.Shutdown()
	if err := <-waiting; !errors.Is(err, ErrClosed) {
		t.Errorf("waiting job error = %v, want ErrClosed", err)
	}
	unstall()
	if err := <-running; !errors.Is(err, ErrUnknownSession) && !errors.Is(err, ErrClosed) {
		t.Errorf("stalled job error = %v, want ErrUnknownSession or ErrClosed", err)
	}
}
