package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/ws"
)

// served is one op's canonical response: the detections it returned and,
// for a flush, the word candidates. Empty lists are omitted so the HTTP
// and WebSocket encodings compare equal.
type served struct {
	D []serve.DetectionJSON `json:"d,omitempty"`
	W []serve.CandidateJSON `json:"w,omitempty"`
}

func (s served) canon() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain structs of strings, ints and floats always marshal
	}
	return string(b)
}

// opResult is what the client saw for one op.
type opResult struct {
	due, sent, done time.Time
	// measured is false for warm-up ops sent before the paced span.
	measured bool
	err      error
	resp     string
}

// sessionRun is one served session: which plan session it replayed and
// what came back for each op.
type sessionRun struct {
	sess    int
	id      string
	results []opResult
}

// runResult is a whole load run as the client saw it.
type runResult struct {
	t0, end   time.Time
	runs      []*sessionRun
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	firstErr  error
}

func (r *runResult) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

func (r *runResult) add(sr *sessionRun) {
	r.mu.Lock()
	r.runs = append(r.runs, sr)
	r.mu.Unlock()
}

// loadClient carries what every session runner needs.
type loadClient struct {
	base string
	http *http.Client
	p    *plan
	res  *runResult
}

// opTimeout bounds any single request or stream wait, so a hung server
// fails the run instead of stalling it.
const opTimeout = time.Minute

// newHTTPClient shares at most nproc connections across all sessions.
func newHTTPClient() *http.Client {
	return &http.Client{Timeout: opTimeout, Transport: &http.Transport{
		MaxConnsPerHost:     nproc(),
		MaxIdleConnsPerHost: nproc(),
		IdleConnTimeout:     time.Minute,
	}}
}

// runPlan drives the plan against base. onStart runs at the origin of the
// measured span, after every warm-up has finished.
func runPlan(p *plan, base string, hc *http.Client, onStart func()) (*runResult, error) {
	lc := &loadClient{base: base, http: hc, p: p, res: &runResult{}}
	var warm, wg sync.WaitGroup
	start := make(chan struct{})
	if p.Closed {
		for w := range p.Writers {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				lc.closedWriter(p.Writers[w], lc.res.t0.Add(time.Duration(p.Seconds)*time.Second))
			}(w)
		}
	} else {
		for i := range p.Sessions {
			wg.Add(1)
			if p.Sessions[i].WS {
				warm.Add(1)
				go func(i int) {
					defer wg.Done()
					lc.wsSession(i, &warm, start)
				}(i)
				continue
			}
			go func(i int) {
				defer wg.Done()
				<-start
				lc.pacedHTTPSession(i)
			}(i)
		}
	}
	warm.Wait()
	// Give every session goroutine a moment to park before the origin.
	lc.res.t0 = time.Now().Add(20 * time.Millisecond)
	time.Sleep(time.Until(lc.res.t0))
	onStart()
	close(start)
	wg.Wait()
	for _, sr := range lc.res.runs {
		for _, r := range sr.results {
			if r.done.After(lc.res.end) {
				lc.res.end = r.done
			}
		}
	}
	if f := lc.res.failed.Load(); f > 0 {
		return lc.res, fmt.Errorf("%d of %d operations failed; first: %w", f, lc.res.attempted.Load(), lc.res.firstErr)
	}
	return lc.res, nil
}

// do sends one request, retrying 429s after the server's 2 ms back-off
// hint; a retried 429 is backpressure, not a failure.
func (lc *loadClient) do(method, path string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, lc.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := lc.http.Do(req)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && attempt < 2000:
			time.Sleep(2 * time.Millisecond)
			continue
		case resp.StatusCode/100 != 2:
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		case out != nil:
			return json.Unmarshal(data, out)
		}
		return nil
	}
}

// openHTTP opens a session and returns its run record.
func (lc *loadClient) openHTTP(i int) (*sessionRun, error) {
	sr := &sessionRun{sess: i, results: make([]opResult, len(lc.p.Sessions[i].Ops))}
	lc.res.attempted.Add(1)
	var o struct{ Session string }
	if err := lc.do(http.MethodPost, "/v1/sessions", nil, &o); err != nil {
		lc.res.fail(fmt.Errorf("open: %w", err))
		return nil, err
	}
	sr.id = o.Session
	lc.res.add(sr)
	return sr, nil
}

// sendHTTP performs op k of the session and records its reply.
func (lc *loadClient) sendHTTP(sr *sessionRun, k int) {
	s := &lc.p.Sessions[sr.sess]
	o := s.Ops[k]
	r := &sr.results[k]
	lc.res.attempted.Add(1)
	r.sent = time.Now()
	var out struct {
		Detections []serve.DetectionJSON
		Words      []serve.CandidateJSON
	}
	var err error
	if o.Flush {
		err = lc.do(http.MethodPost, "/v1/sessions/"+sr.id+"/flush", nil, &out)
	} else {
		err = lc.do(http.MethodPost, "/v1/sessions/"+sr.id+"/audio", s.PCM[o.Off:o.Off+o.N], &out)
	}
	r.done = time.Now()
	if err != nil {
		r.err = err
		lc.res.fail(fmt.Errorf("%s op %d: %w", s.Name, k, err))
		return
	}
	r.resp = served{D: out.Detections, W: out.Words}.canon()
}

func (lc *loadClient) closeHTTP(sr *sessionRun) {
	lc.res.attempted.Add(1)
	if err := lc.do(http.MethodDelete, "/v1/sessions/"+sr.id, nil, nil); err != nil {
		lc.res.fail(fmt.Errorf("close: %w", err))
	}
}

// pacedHTTPSession arrives at its scheduled time and sends each op when
// it is due or when the previous reply arrives, whichever is later.
func (lc *loadClient) pacedHTTPSession(i int) {
	s := &lc.p.Sessions[i]
	origin := lc.res.t0.Add(s.Start)
	time.Sleep(time.Until(origin))
	sr, err := lc.openHTTP(i)
	if err != nil {
		return
	}
	for k, o := range s.Ops {
		sr.results[k].due = origin.Add(o.Due)
		sr.results[k].measured = true
		time.Sleep(time.Until(sr.results[k].due))
		lc.sendHTTP(sr, k)
	}
	lc.closeHTTP(sr)
}

// closedWriter uploads its sessions in turn, each op as soon as the
// previous reply arrives, and starts no upload after deadline.
func (lc *loadClient) closedWriter(sessions []int, deadline time.Time) {
	for n := 0; time.Now().Before(deadline); n++ {
		sr, err := lc.openHTTP(sessions[n%len(sessions)])
		if err != nil {
			return
		}
		prev := time.Now()
		for k := range sr.results {
			sr.results[k].due = prev
			sr.results[k].measured = true
			lc.sendHTTP(sr, k)
			prev = sr.results[k].done
		}
		lc.closeHTTP(sr)
	}
}

// wsSession streams one session over /v1/stream. Warm-up ops go out one
// at a time, each after the previous ack; after the shared origin the
// rest go out on schedule without waiting for acks.
func (lc *loadClient) wsSession(i int, warm *sync.WaitGroup, start <-chan struct{}) {
	s := &lc.p.Sessions[i]
	warmDone := false
	signalWarm := func() {
		if !warmDone {
			warmDone = true
			warm.Done()
		}
	}
	defer signalWarm()
	sr := &sessionRun{sess: i, results: make([]opResult, len(s.Ops))}
	lc.res.attempted.Add(1)
	conn, err := ws.Dial(strings.Replace(lc.base, "http://", "ws://", 1)+"/v1/stream", 10*time.Second)
	if err != nil {
		lc.res.fail(fmt.Errorf("%s dial: %w", s.Name, err))
		return
	}
	defer conn.Close()
	// The whole stream, warm-up included, must finish well within this.
	_ = conn.SetReadDeadline(time.Now().Add(time.Duration(lc.p.Seconds)*time.Second + 2*opTimeout))
	ev, err := readEvent(conn)
	if err != nil || ev.Type != serve.StreamEventReady {
		lc.res.fail(fmt.Errorf("%s handshake: %v %v", s.Name, ev.Type, err))
		return
	}
	sr.id = ev.Session
	lc.res.add(sr)

	acked := make(chan int, len(s.Ops))
	readerDone := make(chan error, 1)
	go func() { readerDone <- lc.wsReader(conn, sr, acked) }()

	send := func(k int) error {
		sr.results[k].sent = time.Now()
		lc.res.attempted.Add(1)
		o := s.Ops[k]
		if o.Flush {
			return conn.WriteMessage(ws.Text, []byte(`{"cmd":"flush"}`))
		}
		return conn.WriteMessage(ws.Binary, s.PCM[o.Off:o.Off+o.N])
	}
	fail := func(err error) {
		lc.res.fail(fmt.Errorf("%s: %w", s.Name, err))
		conn.Close()
		<-readerDone
	}
	for k := 0; k < s.Warm; k++ {
		sr.results[k].due = time.Now()
		if err := send(k); err != nil {
			fail(err)
			return
		}
		select {
		case <-acked:
		case err := <-readerDone:
			lc.res.fail(fmt.Errorf("%s warm-up: %v", s.Name, err))
			return
		}
	}
	signalWarm()
	<-start
	origin := lc.res.t0.Add(s.Start)
	if s.Warm > 0 {
		origin = origin.Add(-s.Ops[s.Warm-1].Due)
	}
	for k := s.Warm; k < len(s.Ops); k++ {
		sr.results[k].due = origin.Add(s.Ops[k].Due)
		sr.results[k].measured = true
		time.Sleep(time.Until(sr.results[k].due))
		if err := send(k); err != nil {
			fail(err)
			return
		}
	}
	for n := s.Warm; n < len(s.Ops); n++ {
		select {
		case <-acked:
		case err := <-readerDone:
			lc.res.fail(fmt.Errorf("%s: stream ended early: %v", s.Name, err))
			return
		}
	}
	lc.res.attempted.Add(1)
	if err := conn.WriteMessage(ws.Text, []byte(`{"cmd":"close"}`)); err != nil {
		fail(err)
		return
	}
	var ce *ws.CloseError
	if err := <-readerDone; !errors.As(err, &ce) {
		lc.res.fail(fmt.Errorf("%s close: %v", s.Name, err))
	}
}

func readEvent(conn *ws.Conn) (serve.StreamEvent, error) {
	var ev serve.StreamEvent
	typ, data, err := conn.ReadMessage()
	if err != nil {
		return ev, err
	}
	if typ != ws.Text {
		return ev, fmt.Errorf("unexpected binary frame")
	}
	return ev, json.Unmarshal(data, &ev)
}

// wsReader completes ops from server events until the connection ends:
// a chunk completes with its detection event, a flush with its
// candidates event. Each completed op index goes to acked.
func (lc *loadClient) wsReader(conn *ws.Conn, sr *sessionRun, acked chan<- int) error {
	s := &lc.p.Sessions[sr.sess]
	for {
		ev, err := readEvent(conn)
		if err != nil {
			return err
		}
		if ev.Type == serve.StreamEventBackpressure {
			continue // the server retries the frame itself
		}
		k := int(ev.Seq) - 1
		if k < 0 || k >= len(s.Ops) {
			return fmt.Errorf("event %q for unknown seq %d", ev.Type, ev.Seq)
		}
		r := &sr.results[k]
		switch {
		case ev.Type == serve.StreamEventError:
			r.done = time.Now()
			r.err = errors.New(ev.Error)
			lc.res.fail(fmt.Errorf("%s op %d: %s", s.Name, k, ev.Error))
			acked <- k
		case ev.Type == serve.StreamEventDetection && !s.Ops[k].Flush:
			r.done = time.Now()
			r.resp = served{D: ev.Detections}.canon()
			acked <- k
		case ev.Type == serve.StreamEventDetection:
			r.resp = served{D: ev.Detections}.canon() // candidates follow
		case ev.Type == serve.StreamEventCandidates:
			var d served
			if err := json.Unmarshal([]byte(r.resp), &d); err != nil {
				return err
			}
			d.W = ev.Words
			r.done = time.Now()
			r.resp = d.canon()
			acked <- k
		}
	}
}
