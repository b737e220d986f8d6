package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audio"
	"repro/internal/stroke"
	"repro/internal/ws"

	"repro/internal/testutil/leak"
)

// chunkRecord flattens a served transcript — which chunk produced which
// detection — so the HTTP and WebSocket ingest paths can be compared
// byte for byte after JSON marshaling.
type chunkRecord struct {
	Chunk      int             `json:"chunk"`
	Detections []DetectionJSON `json:"detections"`
	Words      []CandidateJSON `json:"words"`
}

func marshalTranscript(t *testing.T, recs []chunkRecord) []byte {
	t.Helper()
	for i := range recs {
		// Normalize empty-vs-nil slices: the HTTP responses always carry
		// [] while stream events omit empty fields.
		if len(recs[i].Detections) == 0 {
			recs[i].Detections = []DetectionJSON{}
		}
		if len(recs[i].Words) == 0 {
			recs[i].Words = []CandidateJSON{}
		}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStreamGoldenAlphabet is the WebSocket twin of
// TestServerGoldenAlphabet: the same six-stroke recording goes through
// the HTTP POST path and a /v1/stream connection on the same sharded
// service, chunked identically, and the two transcripts — which chunk
// completed which detection, and the final flush candidates — must be
// byte-identical. Incremental delivery is implied: every detection
// arrives attached to the chunk that completed it, before the flush.
func TestStreamGoldenAlphabet(t *testing.T) {
	leak.Check(t)
	golden := stroke.Sequence(stroke.AllStrokes())
	sig := synthesizeSequence(t, golden, 5)

	sm, err := NewShardedManager(Config{MaxSessions: 8, Workers: 3, Prewarm: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()
	ts := httptest.NewServer(NewServer(sm).Handler())
	defer ts.Close()

	wire := EncodePCM16(sig.Samples)
	const chunkBytes = 2 * 8192

	// HTTP transcript.
	var opened struct {
		Session string `json:"session"`
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", nil, &opened); code != 200 {
		t.Fatalf("open status %d", code)
	}
	var httpRecs []chunkRecord
	chunkIdx := 0
	for off := 0; off < len(wire); off += chunkBytes {
		end := min(off+chunkBytes, len(wire))
		var out audioResponse
		if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+opened.Session+"/audio", wire[off:end], &out); code != 200 {
			t.Fatalf("audio status %d at offset %d", code, off)
		}
		httpRecs = append(httpRecs, chunkRecord{Chunk: chunkIdx, Detections: out.Detections})
		chunkIdx++
	}
	var fl flushResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+opened.Session+"/flush", nil, &fl); code != 200 {
		t.Fatalf("flush status %d", code)
	}
	httpRecs = append(httpRecs, chunkRecord{Chunk: chunkIdx, Detections: fl.Detections, Words: fl.Words})

	// WebSocket transcript of the identical byte stream.
	sc, err := DialStream(ts.URL, "", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Session == "" {
		t.Fatal("stream opened no session")
	}
	var wsRecs []chunkRecord
	chunkIdx = 0
	for off := 0; off < len(wire); off += chunkBytes {
		end := min(off+chunkBytes, len(wire))
		dets, err := sc.SendChunk(wire[off:end])
		if err != nil {
			t.Fatalf("stream chunk at offset %d: %v", off, err)
		}
		wsRecs = append(wsRecs, chunkRecord{Chunk: chunkIdx, Detections: dets})
		chunkIdx++
	}
	dets, words, err := sc.Flush()
	if err != nil {
		t.Fatalf("stream flush: %v", err)
	}
	wsRecs = append(wsRecs, chunkRecord{Chunk: chunkIdx, Detections: dets, Words: words})
	if err := sc.Close(); err != nil {
		t.Fatalf("stream close: %v", err)
	}

	httpJSON, wsJSON := marshalTranscript(t, httpRecs), marshalTranscript(t, wsRecs)
	if string(httpJSON) != string(wsJSON) {
		t.Errorf("transcripts differ\n--- http ---\n%s\n--- ws ---\n%s", httpJSON, wsJSON)
	}

	// Both decode to the golden alphabet.
	var got stroke.Sequence
	for _, rec := range wsRecs {
		for _, d := range rec.Detections {
			seq, err := stroke.ParseSequenceKey(d.Stroke[1:])
			if err != nil {
				t.Fatalf("bad stroke %q: %v", d.Stroke, err)
			}
			got = append(got, seq...)
		}
	}
	if !got.Equal(golden) {
		t.Errorf("streamed alphabet = %v, want %v", got, golden)
	}

	// Both sessions are gone and the streaming metrics saw the traffic.
	if st := sm.Snapshot(); st.ActiveSessions != 1 {
		// The HTTP session is still open (never explicitly closed); the
		// stream's close command must have reclaimed the other.
		t.Errorf("active sessions after stream close = %d, want 1", st.ActiveSessions)
	}
	// The connection gauge decrements in the handler's deferred cleanup,
	// which can trail the client's view of the close handshake briefly.
	deadline := time.Now().Add(5 * time.Second)
	var body string
	for {
		_, _, body = scrape(t, ts.URL, "/metricsz")
		if strings.Contains(body, "echowrite_ws_connections 0") {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("/metricsz never returned to \"echowrite_ws_connections 0\"")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, family := range []string{"echowrite_ws_frames_in_total", "echowrite_ws_frames_out_total"} {
		if strings.Contains(body, family+" 0\n") {
			t.Errorf("%s still zero after stream traffic", family)
		}
	}
}

// TestStreamSessionLifecycle covers open-on-connect ownership (the
// session dies with the connection, cleanly or not) and attach
// semantics (the session outlives the connection).
func TestStreamSessionLifecycle(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{MaxSessions: 4, Workers: 1, Prewarm: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	waitActive := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if got := mgr.Snapshot().ActiveSessions; got == want {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("active sessions = %d, want %d", got, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Open-on-connect, clean close command.
	sc, err := DialStream(ts.URL, "", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	waitActive(1)
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	waitActive(0)

	// Open-on-connect, abrupt disconnect: the server reclaims the
	// session when the read loop fails.
	sc, err = DialStream(ts.URL, "", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	waitActive(1)
	if err := sc.Abort(); err != nil {
		t.Fatal(err)
	}
	waitActive(0)

	// Attach: the session belongs to the caller and survives disconnect.
	id, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	sc, err = DialStream(ts.URL, id, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Session != id {
		t.Errorf("attached session = %q, want %q", sc.Session, id)
	}
	if _, err := sc.SendChunk(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := sc.Abort(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // give a buggy server time to close it
	waitActive(1)
	if err := mgr.Close(id); err != nil {
		t.Fatal(err)
	}

	// Attaching to a session that does not exist fails the handshake.
	if _, err := DialStream(ts.URL, "s999999", 2*time.Second); err == nil ||
		!strings.Contains(err.Error(), "unknown session") {
		t.Errorf("attach to unknown session = %v, want rejection", err)
	}
}

// stageSaturation parks one feed in the single worker and a second in
// the depth-one queue, so the next submission is guaranteed a
// backpressure rejection. The hook's started signal removes the race a
// snapshot poll has: "queue empty" is also true before the first feed
// ever submits, and acting on that spurious state lets the two feeds
// race each other — one gets rejected and the staging never completes.
func stageSaturation(t *testing.T, mgr *ShardedManager, id string, started <-chan struct{}, feedErr chan<- error) {
	t.Helper()
	// First feed: the worker signals pickup through the hook, then parks.
	go func() {
		_, err := mgr.Feed(id, make([]float64, 32))
		feedErr <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first feed")
	}
	// Second feed: with the worker parked it can only sit in the queue.
	go func() {
		_, err := mgr.Feed(id, make([]float64, 32))
		feedErr <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Snapshot().QueueLen != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second feed never queued (len=%d)", mgr.Snapshot().QueueLen)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamBackpressure saturates a one-worker, depth-one queue while
// a stream chunk is in flight: the client must see a backpressure event
// and the chunk must still land once the queue drains — backpressure
// informs, it never drops.
func TestStreamBackpressure(t *testing.T) {
	leak.Check(t)
	hold := make(chan struct{})
	started := make(chan struct{}, 1)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold) }) }
	mgr, err := NewShardedManager(Config{
		MaxSessions: 4,
		Workers:     1,
		QueueDepth:  1,
		Prewarm:     1,
		JobStartHook: func(string) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-hold
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	// Registered after Shutdown so it runs first: a failing assertion
	// must unpark the job, or its caller would never return.
	defer release()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	blocker, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	feedErr := make(chan error, 2)
	stageSaturation(t, mgr, blocker, started, feedErr)

	sc, err := DialStream(ts.URL, "", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Release the worker while the stream chunk is retrying against the
	// full queue.
	timer := time.AfterFunc(50*time.Millisecond, release)
	defer timer.Stop()
	if _, err := sc.SendChunk(make([]byte, 64)); err != nil {
		t.Fatalf("backpressured chunk never landed: %v", err)
	}
	if sc.Backpressured == 0 {
		t.Error("client saw no backpressure event despite a full queue")
	}
	for i := 0; i < 2; i++ {
		if err := <-feedErr; err != nil {
			t.Errorf("blocking feed %d: %v", i, err)
		}
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDriveWriterWSReportsBackpressure pins the load-harness counter
// itself: backpressure events observed on the stream must survive into
// the writerResult that RunLoad aggregates. This is the regression
// guard for the deferred accumulation in driveWriterWS, which once
// mutated a local after the return value had already been copied out —
// every ewload -ws run silently reported zero backpressure.
func TestDriveWriterWSReportsBackpressure(t *testing.T) {
	leak.Check(t)
	hold := make(chan struct{})
	started := make(chan struct{}, 1)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(hold) }) }
	mgr, err := NewShardedManager(Config{
		MaxSessions: 4,
		Workers:     1,
		QueueDepth:  1,
		Prewarm:     1,
		JobStartHook: func(string) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-hold
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	defer release() // a failing assertion must still unpark the worker
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	blocker, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	feedErr := make(chan error, 2)
	stageSaturation(t, mgr, blocker, started, feedErr)

	timer := time.AfterFunc(50*time.Millisecond, release)
	defer timer.Stop()
	res := driveWriterWS(LoadConfig{BaseURL: ts.URL, ChunkSamples: 2048},
		&audio.Signal{Samples: make([]float64, 4096), Rate: 44100})
	if res.errors != 0 {
		t.Fatalf("writer hit %d errors under backpressure; chunks must never drop", res.errors)
	}
	if res.chunks != 2 {
		t.Errorf("writer sent %d chunks, want 2", res.chunks)
	}
	if res.backpressure == 0 {
		t.Error("writerResult lost the stream's backpressure count")
	}
	for i := 0; i < 2; i++ {
		if err := <-feedErr; err != nil {
			t.Errorf("blocking feed %d: %v", i, err)
		}
	}
}

// TestStreamKeepaliveTouch pins the eviction interplay: a connected
// stream counts as session activity, so EvictIdle reclaims a control
// session that crossed IdleTimeout but spares the streamed one, whose
// idle clock the keepalive loop keeps refreshing.
func TestStreamKeepaliveTouch(t *testing.T) {
	leak.Check(t)
	var now atomic.Int64
	now.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	clock := func() time.Time { return time.Unix(0, now.Load()) }
	mgr, err := NewShardedManager(Config{
		MaxSessions: 4,
		Workers:     1,
		Prewarm:     1,
		IdleTimeout: time.Minute,
		Clock:       clock,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	srv := NewServer(mgr)
	srv.wsKeepalive = 5 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	idle, err := mgr.Open()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := DialStream(ts.URL, "", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Jump past the idle horizon, then give the keepalive loop a few
	// real-time ticks to re-stamp the streamed session at the new clock.
	now.Add(int64(2 * time.Minute))
	time.Sleep(100 * time.Millisecond)
	if evicted := mgr.EvictIdle(); evicted != 1 {
		t.Errorf("EvictIdle = %d, want 1 (only the control session %s)", evicted, idle)
	}
	if st := mgr.Snapshot(); st.ActiveSessions != 1 {
		t.Errorf("active sessions after eviction = %d, want the streamed one", st.ActiveSessions)
	}
	// The streamed session is still usable end to end.
	if _, err := sc.SendChunk(make([]byte, 64)); err != nil {
		t.Errorf("chunk on surviving session: %v", err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamBadInput: malformed chunks and commands produce error
// events without killing the connection.
func TestStreamBadInput(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{MaxSessions: 4, Workers: 1, Prewarm: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	sc, err := DialStream(ts.URL, "", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Odd byte count cannot be PCM16.
	if _, err := sc.SendChunk(make([]byte, 33)); err == nil ||
		!strings.Contains(err.Error(), "odd byte count") {
		t.Errorf("odd-length chunk = %v, want decode error", err)
	}
	// Oversized chunk is refused without feeding.
	huge := make([]byte, 2*mgr.MaxChunk()+2)
	if _, err := sc.SendChunk(huge); err == nil ||
		!strings.Contains(err.Error(), "over") {
		t.Errorf("oversized chunk = %v, want size error", err)
	}
	// Unknown and unparsable commands are reported, not fatal.
	for _, raw := range []string{`{"cmd":"bogus"}`, `{not json`} {
		if err := sc.writeRaw(raw); err != nil {
			t.Fatal(err)
		}
		ev, err := sc.readEvent()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type != StreamEventError {
			t.Errorf("after %q got %q event, want error", raw, ev.Type)
		}
	}
	// The connection survived all of it.
	if _, err := sc.SendChunk(make([]byte, 64)); err != nil {
		t.Errorf("valid chunk after errors: %v", err)
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeRaw ships an arbitrary text frame (test hook for malformed
// commands).
func (c *StreamClient) writeRaw(s string) error {
	return c.conn.WriteMessage(ws.Text, []byte(s))
}

// TestStreamTerminalErrorEvent pins the terminal half of the protocol:
// when the attached session disappears under a stream, the next chunk
// is answered by an error event naming the unknown session, and only
// then by the 1008 close frame. A client must learn why the stream
// ended from the event, not from the close reason.
func TestStreamTerminalErrorEvent(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{MaxSessions: 4, Workers: 1, Prewarm: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	for i := 0; i < 20; i++ {
		id, err := mgr.Open()
		if err != nil {
			t.Fatal(err)
		}
		sc, err := DialStream(ts.URL, id, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.Close(id); err != nil {
			t.Fatal(err)
		}
		_, err = sc.SendChunk(make([]byte, 64))
		sc.Abort()
		if err == nil {
			t.Fatalf("stream %d: chunk on a closed session succeeded", i)
		}
		if !strings.Contains(err.Error(), "unknown session") {
			t.Fatalf("stream %d: chunk on a closed session = %v, want the unknown-session error event", i, err)
		}
	}
}
