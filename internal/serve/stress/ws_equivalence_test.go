package stress

import (
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stroke"

	"repro/internal/testutil/leak"
)

// streamAll drives one /v1/stream connection end to end — chunked
// sends, flush, close command — and returns the stroke sequence the
// server pushed incrementally.
func streamAll(baseURL string, samples []float64, chunk int) (stroke.Sequence, error) {
	sc, err := serve.DialStream(baseURL, "", 10*time.Second)
	if err != nil {
		return nil, err
	}
	var got stroke.Sequence
	collect := func(dets []serve.DetectionJSON) error {
		for _, d := range dets {
			seq, err := stroke.ParseSequenceKey(d.Stroke[1:])
			if err != nil {
				return err
			}
			got = append(got, seq...)
		}
		return nil
	}
	for off := 0; off < len(samples); off += chunk {
		end := min(off+chunk, len(samples))
		dets, err := sc.SendChunk(serve.EncodePCM16(samples[off:end]))
		if err != nil {
			sc.Abort()
			return nil, err
		}
		if err := collect(dets); err != nil {
			sc.Abort()
			return nil, err
		}
	}
	dets, _, err := sc.Flush()
	if err != nil {
		sc.Abort()
		return nil, err
	}
	if err := collect(dets); err != nil {
		sc.Abort()
		return nil, err
	}
	return got, sc.Close()
}

// TestStreamShardedEquivalentToSingleShard extends the determinism
// guarantee to the WebSocket ingest path: concurrent /v1/stream
// writers against a sharded service must reproduce, stroke for stroke,
// what a single-shard manager fed sequentially through the Go API
// produces — transport, sharding and interleaving never leak into
// recognition results.
func TestStreamShardedEquivalentToSingleShard(t *testing.T) {
	leak.Check(t)
	words := []string{"on", "it"}
	signals := synthWords(t, words, 47)

	sessions := scale(8, 32)
	chunkOf := func(i int) int { return []int{2048, 4096, 8192, 3001}[i%4] }

	// Single-shard reference, fed sequentially through the Go API.
	single, err := serve.NewShardedManager(serve.Config{
		MaxSessions: sessions, Workers: 2, QueueDepth: 64, Prewarm: 2,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Shutdown()
	want := make([]stroke.Sequence, sessions)
	for i := 0; i < sessions; i++ {
		id, err := single.Open()
		if err != nil {
			t.Fatal(err)
		}
		seq, err := feedAll(single, id, signals[i%len(signals)], chunkOf(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) == 0 {
			t.Fatalf("reference session %d produced no strokes; premise broken", i)
		}
		want[i] = seq
		if err := single.Close(id); err != nil {
			t.Fatal(err)
		}
	}

	// Sharded service behind the HTTP front end, all writers streaming
	// concurrently over WebSockets.
	sm, err := serve.NewShardedManager(serve.Config{
		MaxSessions: sessions, Workers: 8, QueueDepth: 64, Prewarm: 4,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()
	ts := httptest.NewServer(serve.NewServer(sm).Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sig := signals[i%len(signals)]
			got, err := streamAll(ts.URL, sig.Samples, chunkOf(i))
			if err != nil {
				errCh <- err
				return
			}
			if !got.Equal(want[i]) {
				errCh <- errors.New("stream writer " + got.String() +
					" != single-shard reference " + want[i].String())
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Every connection-owned session was reclaimed by its close command.
	if st := sm.Snapshot(); st.ActiveSessions != 0 {
		t.Errorf("sessions left open after stream closes: %d", st.ActiveSessions)
	}
}
