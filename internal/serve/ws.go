package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
	"repro/internal/ws"
)

// The /v1/stream wire protocol — the persistent duplex alternative to
// the per-chunk POST round trip:
//
//	GET /v1/stream[?session=ID]   WebSocket upgrade. Without a session
//	                              parameter a new session is opened and
//	                              owned by the connection (closed when
//	                              the connection ends); with one, the
//	                              connection attaches to the existing
//	                              session and leaves it open on
//	                              disconnect.
//
// Client → server frames:
//
//	binary                        one audio chunk (16-bit LE mono PCM,
//	                              same format as POST /audio)
//	text {"cmd":"flush"}          drain the partial frame and emit word
//	                              candidates
//	text {"cmd":"close"}          close the session, then the connection
//
// Server → client frames are text JSON StreamEvents. Every audio chunk
// and flush is acknowledged by exactly one "detection" event carrying
// the input's sequence number (binary chunks and flushes share one
// counter), so detections stream incrementally and a client can measure
// per-chunk round trips; a flush additionally produces a "candidates"
// event. A full ingest queue emits a "backpressure" event while the
// server keeps retrying the same chunk — frames are never dropped — and
// "error" reports per-input failures (oversized or malformed chunks)
// or terminal ones (unknown session). A terminal error event is always
// written before the 1008 (policy violation) close frame that ends the
// stream.
const (
	// wsKeepaliveDefault paces server pings; each tick also refreshes
	// the session's idle clock, so an open stream is never evicted.
	wsKeepaliveDefault = 30 * time.Second
	// wsWriteTimeout bounds one frame write to a (possibly dead) peer.
	wsWriteTimeout = 10 * time.Second
	// wsBackpressureDelay is the pause between server-side retries of a
	// chunk rejected by a full shard queue (mirrors cmd/ewload's retry
	// delay on 429).
	wsBackpressureDelay = 2 * time.Millisecond
	// wsBackpressureRetries bounds those retries before the chunk is
	// reported failed.
	wsBackpressureRetries = 400
	// wsCloseTimeout bounds the closing handshake drain.
	wsCloseTimeout = 2 * time.Second
)

// Stream event types.
const (
	StreamEventReady        = "ready"
	StreamEventDetection    = "detection"
	StreamEventCandidates   = "candidates"
	StreamEventBackpressure = "backpressure"
	StreamEventError        = "error"
)

// StreamEvent is one server→client message on the /v1/stream
// WebSocket. Type selects which fields are meaningful; Seq ties
// detection/candidates/backpressure/error events back to the input
// (chunk or flush) that produced them.
type StreamEvent struct {
	Type       string          `json:"type"`
	Session    string          `json:"session,omitempty"`
	Seq        uint64          `json:"seq,omitempty"`
	Detections []DetectionJSON `json:"detections,omitempty"`
	Words      []CandidateJSON `json:"words,omitempty"`
	Error      string          `json:"error,omitempty"`
	RetryMs    int             `json:"retry_ms,omitempty"`
}

// streamCommand is one client→server text frame.
type streamCommand struct {
	Cmd string `json:"cmd"`
}

// wsPushLatencyBuckets are the upper bounds (milliseconds) of the
// push-latency histogram: octaves from 50 µs, so a healthy
// encode-and-write (tens of microseconds) and a slow-client stall both
// land in informative buckets.
var wsPushLatencyBuckets = mustExpBuckets(0.05, 2, 12)

// wsStats is the /metricsz surface of the streaming subsystem.
type wsStats struct {
	connections atomic.Int64  // currently open stream connections
	framesIn    atomic.Uint64 // client frames received (chunks + commands)
	framesOut   atomic.Uint64 // event frames pushed
	pushLat     *expose.Histogram
}

func newWSStats() *wsStats {
	hist, err := expose.NewHistogram(wsPushLatencyBuckets)
	if err != nil {
		panic(err) // static bucket layout; failure is a programming bug
	}
	return &wsStats{pushLat: hist}
}

// push writes one event on the calling goroutine. ws.Conn serializes
// it with keepalive pings under its write lock, so events leave in the
// order their read loop produced them. A write failure other than a
// close frame already sent tears the connection down, which unwinds
// the read loop.
func (s *Server) push(conn *ws.Conn, ev StreamEvent) {
	t := time.Now()
	data, err := json.Marshal(ev)
	if err != nil {
		return // event structs marshal by construction
	}
	_ = conn.SetWriteDeadline(t.Add(wsWriteTimeout))
	if err := conn.WriteMessage(ws.Text, data); err != nil {
		// An event racing the close frame out the door is benign — the
		// peer asked to close; don't tear the handshake down.
		if !errors.Is(err, ws.ErrCloseSent) {
			conn.Close()
		}
		return
	}
	s.ws.framesOut.Add(1)
	s.ws.pushLat.Observe(float64(time.Since(t)) / float64(time.Millisecond))
}

// handleStream is GET /v1/stream: upgrade, resolve the session, then
// run the read loop, which feeds chunks and commands in and writes the
// events each one produces.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	conn, err := ws.Accept(w, r)
	if err != nil {
		return // Accept already wrote the HTTP error
	}
	defer conn.Close()
	conn.MaxPayload = 2*int64(s.mgr.MaxChunk()) + 1024 // PCM bytes per chunk, plus command slack

	s.ws.connections.Add(1)
	defer s.ws.connections.Add(-1)

	// Without ?session= the connection opens and owns a new session;
	// with one, Touch validates the attach target.
	opened := false
	if id == "" {
		id, err = s.mgr.Open()
		if err != nil {
			s.rejectStream(conn, err)
			return
		}
		opened = true
	} else if err := s.mgr.Touch(id); err != nil {
		s.rejectStream(conn, err)
		return
	}
	// From here the session must not leak: every return path closes it
	// if this connection opened it.
	defer func() {
		if opened {
			_ = s.mgr.Close(id)
		}
	}()

	stop := make(chan struct{})
	defer close(stop)
	go s.wsKeepaliveLoop(conn, id, stop)

	s.push(conn, StreamEvent{Type: StreamEventReady, Session: id})
	var seq uint64
	for {
		typ, data, err := conn.ReadMessage()
		if err != nil {
			return // peer closed (CloseError), vanished, or misbehaved
		}
		s.ws.framesIn.Add(1)
		_ = s.mgr.Touch(id)
		switch typ {
		case ws.Binary:
			seq++
			err = s.streamFeed(conn, id, seq, data)
		case ws.Text:
			var cmd streamCommand
			if err := json.Unmarshal(data, &cmd); err != nil {
				s.push(conn, StreamEvent{Type: StreamEventError, Error: "malformed command: " + err.Error()})
				continue
			}
			switch cmd.Cmd {
			case "flush":
				seq++
				err = s.streamFlush(conn, id, seq)
			case "close":
				if err := s.mgr.Close(id); err == nil {
					opened = false // already closed; the defer must not double-close
				}
				// Finish the handshake: send close, then keep reading
				// until the peer's reply surfaces as a CloseError.
				conn.WriteClose(ws.StatusNormalClosure, "")
			default:
				s.push(conn, StreamEvent{Type: StreamEventError, Error: "unknown command " + cmd.Cmd})
			}
		}
		if err != nil {
			s.push(conn, StreamEvent{Type: StreamEventError, Seq: seq, Error: err.Error()})
			if errors.Is(err, ErrUnknownSession) || errors.Is(err, ErrClosed) {
				conn.WriteClose(ws.StatusPolicyViolation, "session gone")
				return
			}
		}
	}
}

// rejectStream reports a pre-stream failure (open or attach), then
// closes with a policy code.
func (s *Server) rejectStream(conn *ws.Conn, err error) {
	s.push(conn, StreamEvent{Type: StreamEventError, Error: err.Error()})
	_ = conn.CloseHandshake(ws.StatusPolicyViolation, err.Error(), wsCloseTimeout)
}

// wsKeepaliveLoop pings the peer and refreshes the session's idle
// clock until stop closes. Write failures are ignored: the read loop
// observes the dead connection and tears everything down.
func (s *Server) wsKeepaliveLoop(conn *ws.Conn, id string, stop <-chan struct{}) {
	interval := s.wsKeepalive
	if interval <= 0 {
		interval = wsKeepaliveDefault
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = conn.SetWriteDeadline(time.Now().Add(wsWriteTimeout))
			_ = conn.WritePing(nil)
			_ = s.mgr.Touch(id)
		case <-stop:
			return
		}
	}
}

// streamFeed decodes and feeds one binary chunk, retrying through
// shard backpressure so the audio stays contiguous — a full queue
// surfaces to the client as a backpressure event, never a dropped
// frame. On success it emits the chunk's detection event; a failure
// is returned for the read loop to report as the chunk's error event.
func (s *Server) streamFeed(conn *ws.Conn, id string, seq uint64, body []byte) error {
	chunk, err := decodePCM16(body, int64(2*s.mgr.MaxChunk()))
	if err != nil {
		return err
	}
	dets, err := s.streamSubmit(conn, seq, func() ([]pipeline.Detection, error) {
		return s.mgr.Feed(id, chunk)
	})
	if err != nil {
		return err
	}
	s.push(conn, StreamEvent{Type: StreamEventDetection, Seq: seq, Detections: detectionsJSON(dets)})
	return nil
}

// streamFlush drains the session and emits the detection event plus a
// candidates event (always, even when empty, so clients have a
// definite end-of-flush marker). A failure is returned like
// streamFeed's.
func (s *Server) streamFlush(conn *ws.Conn, id string, seq uint64) error {
	var cands []infer.Candidate
	dets, err := s.streamSubmit(conn, seq, func() ([]pipeline.Detection, error) {
		dets, cs, ferr := s.mgr.Flush(id)
		cands = cs
		return dets, ferr
	})
	if err != nil {
		return err
	}
	s.push(conn, StreamEvent{Type: StreamEventDetection, Seq: seq, Detections: detectionsJSON(dets)})
	s.push(conn, StreamEvent{Type: StreamEventCandidates, Seq: seq, Words: candidatesJSON(cands)})
	return nil
}

// streamSubmit runs one ingest operation with bounded backpressure
// retries, emitting a single backpressure event on the first
// rejection.
func (s *Server) streamSubmit(conn *ws.Conn, seq uint64, op func() ([]pipeline.Detection, error)) ([]pipeline.Detection, error) {
	for attempt := 0; ; attempt++ {
		dets, err := op()
		if !errors.Is(err, ErrBackpressure) {
			return dets, err
		}
		if attempt == 0 {
			s.push(conn, StreamEvent{
				Type:    StreamEventBackpressure,
				Seq:     seq,
				RetryMs: int(wsBackpressureDelay / time.Millisecond),
			})
		}
		if attempt >= wsBackpressureRetries {
			return nil, err
		}
		time.Sleep(wsBackpressureDelay)
	}
}
