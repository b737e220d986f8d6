package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/acoustic"
	"repro/internal/audio"
	"repro/internal/capture"
	"repro/internal/metrics"
	"repro/internal/participant"
	"repro/internal/stroke"
)

// LoadConfig drives RunLoad, the multi-writer load generator behind
// cmd/ewload. Writers are synthetic users: each opens a session against
// BaseURL, streams a pre-synthesized recording chunk by chunk over the
// wire protocol, flushes, and closes.
type LoadConfig struct {
	// BaseURL targets an ewserve instance, e.g. "http://127.0.0.1:8791".
	BaseURL string
	// Writers is the number of concurrent sessions (default 8).
	Writers int
	// Word is what every writer writes (default "on" — short, so a run
	// stays quick; any letters-only word works).
	Word string
	// Signals is how many distinct recordings to synthesize; writers
	// share them round-robin so load scales without paying synthesis per
	// writer (default min(Writers, 4)).
	Signals int
	// ChunkSamples is the ingest chunk size (default 2205 = 50 ms at
	// 44.1 kHz).
	ChunkSamples int
	// Seed varies the synthesized scenes.
	Seed uint64
	// BackpressureRetries bounds how often one chunk or flush is retried
	// after a 429 before the writer gives up on it (default 100).
	// Retrying keeps the audio contiguous, which recognition needs, and
	// a flush is what returns the word candidates.
	BackpressureRetries int
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
	// WS switches writers from per-chunk HTTP POSTs to one persistent
	// /v1/stream WebSocket connection each: chunks go out as binary
	// frames and detections come back as incremental events. Chunk
	// latency then measures the frame→ack round trip, head-to-head
	// comparable with the POST round trip.
	WS bool
	// Recordings, when non-empty, replaces synthesis: writers share
	// these pre-recorded traces round-robin and Word/Signals/Seed are
	// ignored. This is the scenario replay path — the bytes on the wire
	// come from a trace cache, identical run after run.
	Recordings []*audio.Signal
	// Duration switches the run into soak mode: every writer performs
	// full sessions back to back (open, stream, flush, close) until the
	// deadline passes, instead of stopping after one. Zero keeps the
	// single-pass behavior.
	Duration time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Writers <= 0 {
		c.Writers = 8
	}
	if c.Word == "" {
		c.Word = "on"
	}
	if c.Signals <= 0 {
		c.Signals = min(c.Writers, 4)
	}
	if c.ChunkSamples <= 0 {
		c.ChunkSamples = 2205
	}
	if c.BackpressureRetries <= 0 {
		c.BackpressureRetries = 100
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	return c
}

// LoadReport is RunLoad's aggregated result.
type LoadReport struct {
	Writers      int
	ChunksSent   int
	Detections   int
	Words        int // sessions whose flush produced ≥1 word candidate
	Sessions     int // completed writer sessions (= Writers unless soaking)
	Backpressure int // 429 responses (HTTP) or backpressure events (WS) observed
	Errors       int // non-backpressure failures (chunks dropped, HTTP errors)
	Elapsed      time.Duration
	AudioSeconds float64 // total audio streamed across writers

	// StrokeLatencyMs summarizes wall time from submitting the chunk
	// whose processing completed a stroke to receiving that detection.
	StrokeLatencyMs metrics.LatencySummary
	// ChunkLatencyMs summarizes the round-trip of every audio POST.
	ChunkLatencyMs metrics.LatencySummary
}

// RealTimeFactor is audio seconds processed per wall-clock second — the
// headline concurrency number (>1 means faster than real time in
// aggregate).
func (r *LoadReport) RealTimeFactor() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return r.AudioSeconds / r.Elapsed.Seconds()
}

// ErrorRate is the fraction of attempted operations that failed
// outright (backpressure retries that eventually succeeded do not
// count). cmd/ewload exits non-zero when this exceeds its threshold, so
// a load run doubles as a CI smoke gate.
func (r *LoadReport) ErrorRate() float64 {
	total := r.ChunksSent + r.Errors
	if total == 0 {
		return 0
	}
	return float64(r.Errors) / float64(total)
}

// String renders the human-readable summary cmd/ewload prints.
func (r *LoadReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "writers            %d (%d sessions)\n", r.Writers, r.Sessions)
	fmt.Fprintf(&b, "audio streamed     %.1f s (%.2f× real time)\n", r.AudioSeconds, r.RealTimeFactor())
	fmt.Fprintf(&b, "chunks sent        %d in %v (%.0f chunks/s)\n",
		r.ChunksSent, r.Elapsed.Round(time.Millisecond),
		float64(r.ChunksSent)/r.Elapsed.Seconds())
	fmt.Fprintf(&b, "detections         %d\n", r.Detections)
	fmt.Fprintf(&b, "sessions w/ words  %d\n", r.Words)
	fmt.Fprintf(&b, "backpressure       %d\n", r.Backpressure)
	fmt.Fprintf(&b, "errors             %d (%.2f%% of chunks)\n", r.Errors, 100*r.ErrorRate())
	fmt.Fprintf(&b, "chunk latency ms   p50 %.2f  p95 %.2f  p99 %.2f\n",
		r.ChunkLatencyMs.P50, r.ChunkLatencyMs.P95, r.ChunkLatencyMs.P99)
	fmt.Fprintf(&b, "stroke latency ms  p50 %.2f  p95 %.2f  p99 %.2f\n",
		r.StrokeLatencyMs.P50, r.StrokeLatencyMs.P95, r.StrokeLatencyMs.P99)
	return b.String()
}

// RunLoad synthesizes (or replays) the writer recordings, drives
// Writers concurrent sessions against the server and aggregates the
// report. With Duration set, each writer loops whole sessions until the
// deadline (soak mode).
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	signals := cfg.Recordings
	if len(signals) == 0 {
		var err error
		signals, err = synthesizeWriters(cfg)
		if err != nil {
			return nil, err
		}
	}

	var (
		mu        sync.Mutex
		report    = LoadReport{Writers: cfg.Writers}
		chunkLat  []float64
		strokeLat []float64
		wg        sync.WaitGroup
	)
	drive := driveWriter
	if cfg.WS {
		drive = driveWriterWS
	}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for w := 0; w < cfg.Writers; w++ {
		sig := signals[w%len(signals)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res := drive(cfg, sig)
				mu.Lock()
				report.Sessions++
				report.ChunksSent += res.chunks
				report.Detections += res.detections
				report.Backpressure += res.backpressure
				report.Errors += res.errors
				report.AudioSeconds += sig.Duration()
				if res.words > 0 {
					report.Words++
				}
				chunkLat = append(chunkLat, res.chunkLat...)
				strokeLat = append(strokeLat, res.strokeLat...)
				mu.Unlock()
				if cfg.Duration <= 0 || !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	report.Elapsed = time.Since(start)
	report.ChunkLatencyMs = metrics.SummarizeLatencies(chunkLat)
	report.StrokeLatencyMs = metrics.SummarizeLatencies(strokeLat)
	return &report, nil
}

// synthesizeWriters renders the distinct recordings writers share.
func synthesizeWriters(cfg LoadConfig) ([]*audio.Signal, error) {
	roster := participant.SixParticipants()
	signals := make([]*audio.Signal, cfg.Signals)
	for i := range signals {
		sess := participant.NewSession(roster[i%len(roster)], cfg.Seed+uint64(i))
		rec, err := capture.PerformWord(sess, stroke.DefaultScheme(), cfg.Word,
			acoustic.Mate9(), acoustic.StandardEnvironment(acoustic.MeetingRoom),
			cfg.Seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("serve: synthesize writer %d: %w", i, err)
		}
		signals[i] = rec.Signal
	}
	return signals, nil
}

type writerResult struct {
	chunks, detections, words int
	backpressure, errors      int
	chunkLat, strokeLat       []float64
}

// driveWriter runs one synthetic user end to end. Failures count into
// errors rather than aborting the run: a load test should report a sick
// server, not crash on it.
func driveWriter(cfg LoadConfig, sig *audio.Signal) writerResult {
	var res writerResult
	id, err := openSession(cfg)
	if err != nil {
		res.errors++
		return res
	}
	defer closeSession(cfg, id)

	for off := 0; off < len(sig.Samples); off += cfg.ChunkSamples {
		end := min(off+cfg.ChunkSamples, len(sig.Samples))
		body := EncodePCM16(sig.Samples[off:end])
		n, lat, err := postChunk(cfg, id, body, &res)
		if err != nil {
			res.errors++
			continue
		}
		res.chunks++
		latMs := float64(lat) / float64(time.Millisecond)
		res.chunkLat = append(res.chunkLat, latMs)
		if n > 0 {
			res.detections += n
			// The stroke became available with this chunk's round trip.
			res.strokeLat = append(res.strokeLat, latMs)
		}
	}

	dets, words, err := flushSession(cfg, id, &res)
	if err != nil {
		res.errors++
		return res
	}
	res.detections += dets
	res.words = words
	return res
}

// driveWriterWS is driveWriter over one persistent stream connection.
// Backpressure shows up as server-pushed events (the server itself
// retries the queue, so chunks stay contiguous without a client loop);
// a connection-level failure ends the writer since every later frame
// would fail the same way. The named return matters: the deferred
// accumulation below must land in the return value, not a dead local.
func driveWriterWS(cfg LoadConfig, sig *audio.Signal) (res writerResult) {
	sc, err := DialStream(cfg.BaseURL, "", 10*time.Second)
	if err != nil {
		res.errors++
		return res
	}
	closed := false
	defer func() {
		res.backpressure += int(sc.Backpressured)
		if !closed {
			_ = sc.Abort()
		}
	}()

	for off := 0; off < len(sig.Samples); off += cfg.ChunkSamples {
		end := min(off+cfg.ChunkSamples, len(sig.Samples))
		body := EncodePCM16(sig.Samples[off:end])
		t0 := time.Now()
		dets, err := sc.SendChunk(body)
		if err != nil {
			res.errors++
			return res
		}
		res.chunks++
		latMs := float64(time.Since(t0)) / float64(time.Millisecond)
		res.chunkLat = append(res.chunkLat, latMs)
		if len(dets) > 0 {
			res.detections += len(dets)
			res.strokeLat = append(res.strokeLat, latMs)
		}
	}

	dets, words, err := sc.Flush()
	if err != nil {
		res.errors++
		return res
	}
	res.detections += len(dets)
	res.words = len(words)
	if err := sc.Close(); err != nil {
		res.errors++
		return res
	}
	closed = true
	return res
}

func openSession(cfg LoadConfig) (string, error) {
	resp, err := cfg.Client.Post(cfg.BaseURL+"/v1/sessions", "application/json", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("open: status %d", resp.StatusCode)
	}
	var out struct {
		Session string `json:"session"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.Session, nil
}

// postChunk sends one chunk, retrying on backpressure so the audio stays
// contiguous. Returns the number of detections and the (final) round
// trip time.
func postChunk(cfg LoadConfig, id string, body []byte, res *writerResult) (int, time.Duration, error) {
	resp, lat, err := postRetrying(cfg, "/v1/sessions/"+id+"/audio", "application/octet-stream", body, res)
	if err != nil {
		return 0, 0, fmt.Errorf("audio: %w", err)
	}
	defer resp.Body.Close()
	var out struct {
		Detections []DetectionJSON `json:"detections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, 0, err
	}
	return len(out.Detections), lat, nil
}

// flushSession drains the session, retrying on backpressure exactly as
// postChunk does: a flush is queued like a chunk, so a saturated shard
// answers it with 429 too, and giving up would lose the session's last
// strokes and its word candidates.
func flushSession(cfg LoadConfig, id string, res *writerResult) (dets, words int, err error) {
	resp, _, err := postRetrying(cfg, "/v1/sessions/"+id+"/flush", "application/json", nil, res)
	if err != nil {
		return 0, 0, fmt.Errorf("flush: %w", err)
	}
	defer resp.Body.Close()
	var out struct {
		Detections []DetectionJSON `json:"detections"`
		Words      []CandidateJSON `json:"words"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, 0, err
	}
	return len(out.Detections), len(out.Words), nil
}

// postRetrying POSTs body to path, retrying each 429 after a short pause
// up to BackpressureRetries times and counting every one in
// res.backpressure. On success it returns the 200 response, body still
// open, and the final attempt's round-trip time.
func postRetrying(cfg LoadConfig, path, contentType string, body []byte, res *writerResult) (*http.Response, time.Duration, error) {
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		resp, err := cfg.Client.Post(cfg.BaseURL+path, contentType, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		lat := time.Since(t0)
		switch resp.StatusCode {
		case http.StatusOK:
			return resp, lat, nil
		case http.StatusTooManyRequests:
			resp.Body.Close()
			res.backpressure++
			if attempt >= cfg.BackpressureRetries {
				return nil, 0, fmt.Errorf("dropped after %d backpressure retries", attempt)
			}
			time.Sleep(2 * time.Millisecond)
		default:
			resp.Body.Close()
			return nil, 0, fmt.Errorf("status %d", resp.StatusCode)
		}
	}
}

func closeSession(cfg LoadConfig, id string) {
	req, err := http.NewRequest(http.MethodDelete, cfg.BaseURL+"/v1/sessions/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := cfg.Client.Do(req); err == nil {
		resp.Body.Close()
	}
}
