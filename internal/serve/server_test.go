package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/audio"
	"repro/internal/pipeline"
	"repro/internal/stroke"

	"repro/internal/testutil/leak"
)

func postJSON(t *testing.T, client *http.Client, url string, body []byte, out any) int {
	t.Helper()
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestServerEndToEnd(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{MaxSessions: 4, Workers: 2, Prewarm: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	sig := synthesizeSequence(t, stroke.Sequence{stroke.S2, stroke.S3}, 9)
	// The wire quantizes to 16-bit PCM; the batch reference must see the
	// same quantized samples for exact equivalence.
	wire := EncodePCM16(sig.Samples)
	quantized := make([]float64, len(sig.Samples))
	for i := range quantized {
		quantized[i] = float64(int16(uint16(wire[2*i])|uint16(wire[2*i+1])<<8)) / 32768
	}
	eng, err := pipeline.NewEngine(pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Recognize(&audio.Signal{Samples: quantized, Rate: sig.Rate})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sequence) == 0 {
		t.Fatal("batch reference found no strokes; test premise broken")
	}

	var opened struct {
		Session string `json:"session"`
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", nil, &opened); code != http.StatusOK {
		t.Fatalf("open status %d", code)
	}

	var got stroke.Sequence
	const chunkBytes = 2 * 4096
	for off := 0; off < len(wire); off += chunkBytes {
		end := min(off+chunkBytes, len(wire))
		var out audioResponse
		code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+opened.Session+"/audio", wire[off:end], &out)
		if code != http.StatusOK {
			t.Fatalf("audio status %d at offset %d", code, off)
		}
		for _, d := range out.Detections {
			seq, err := stroke.ParseSequenceKey(d.Stroke[1:])
			if err != nil {
				t.Fatalf("bad stroke %q: %v", d.Stroke, err)
			}
			got = append(got, seq...)
		}
	}
	var fl flushResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/"+opened.Session+"/flush", nil, &fl); code != http.StatusOK {
		t.Fatalf("flush status %d", code)
	}
	for _, d := range fl.Detections {
		seq, err := stroke.ParseSequenceKey(d.Stroke[1:])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, seq...)
	}
	if !got.Equal(rec.Sequence) {
		t.Errorf("served sequence %v, batch %v", got, rec.Sequence)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+opened.Session, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete status %d", resp.StatusCode)
	}

	// statsz reflects the traffic.
	var st Stats
	sresp, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.ActiveSessions != 0 {
		t.Errorf("statsz active sessions = %d, want 0", st.ActiveSessions)
	}
	if st.Chunks == 0 || st.Detections != uint64(len(rec.Sequence)) {
		t.Errorf("statsz chunks %d detections %d, want >0 and %d", st.Chunks, st.Detections, len(rec.Sequence))
	}
}

func TestServerErrorMapping(t *testing.T) {
	leak.Check(t)
	mgr, err := NewShardedManager(Config{MaxSessions: 1, Workers: 1, Prewarm: 1, MaxChunk: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown()
	ts := httptest.NewServer(NewServer(mgr).Handler())
	defer ts.Close()

	// Unknown session → 404.
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions/nope/audio", make([]byte, 16), nil); code != http.StatusNotFound {
		t.Errorf("unknown session status %d, want 404", code)
	}
	// Session table full → 503.
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", nil, nil); code != http.StatusOK {
		t.Fatalf("open status %d", code)
	}
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/sessions", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("session-limit status %d, want 503", code)
	}

	var opened struct {
		Session string `json:"session"`
	}
	mgr2, err := NewShardedManager(Config{MaxSessions: 2, Workers: 1, Prewarm: 1, MaxChunk: 4096}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Shutdown()
	ts2 := httptest.NewServer(NewServer(mgr2).Handler())
	defer ts2.Close()
	if code := postJSON(t, ts2.Client(), ts2.URL+"/v1/sessions", nil, &opened); code != http.StatusOK {
		t.Fatal("open failed")
	}
	audioURL := ts2.URL + "/v1/sessions/" + opened.Session + "/audio"
	// Odd byte count → 400.
	if code := postJSON(t, ts2.Client(), audioURL, make([]byte, 15), nil); code != http.StatusBadRequest {
		t.Errorf("odd-body status %d, want 400", code)
	}
	// Body over the chunk cap → 413.
	if code := postJSON(t, ts2.Client(), audioURL, make([]byte, 2*4096+2), nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized status %d, want 413", code)
	}
}
