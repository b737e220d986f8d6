package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/metrics/expose"
	"repro/internal/pipeline"
	"repro/internal/stroke"

	"repro/internal/testutil/leak"
)

// scrape fetches a server path and returns status, content type, body.
func scrape(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestMetricszGoldenZeroTraffic pins the full exposition — metric
// names, HELP/TYPE ordering, label rendering, histogram bucket layout
// with the +Inf bucket — byte for byte against testdata.
func TestMetricszGoldenZeroTraffic(t *testing.T) {
	leak.Check(t)
	t.Run("sharded", func(t *testing.T) {
		const golden = "testdata/metricsz_sharded_zero.txt"
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := NewShardedManager(Config{MaxSessions: 4, Workers: 2, QueueDepth: 8, Prewarm: 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Shutdown()
		ts := httptest.NewServer(NewServer(sm).Handler())
		defer ts.Close()
		status, ct, body := scrape(t, ts.URL, "/metricsz")
		if status != http.StatusOK {
			t.Fatalf("/metricsz status = %d", status)
		}
		if ct != metricsContentType {
			t.Errorf("content type = %q, want %q", ct, metricsContentType)
		}
		if body != string(want) {
			t.Errorf("exposition differs from %s:\n--- got ---\n%s", golden, body)
		}
		// The golden must itself satisfy the strict parser, including
		// histogram cumulativity.
		if _, err := expose.Parse(strings.NewReader(body)); err != nil {
			t.Errorf("golden exposition does not parse: %v", err)
		}
	})
}

// TestMetricszSmoke is the CI smoke gate (`make metricsz-smoke`): boot
// a sharded service, drive real audio and one failing feed through it,
// then strictly parse the exposition and cross-check every counter
// family and the feed-latency quantiles against /statsz.
func TestMetricszSmoke(t *testing.T) {
	leak.Check(t)
	sm, err := NewShardedManager(Config{MaxSessions: 8, Workers: 2, QueueDepth: 64, Prewarm: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()
	ts := httptest.NewServer(NewServer(sm).Handler())
	defer ts.Close()

	// Real traffic on two sessions, then quiesce before scraping so the
	// two endpoints see identical counters.
	sig := synthesizeSequence(t, stroke.Sequence{stroke.S2, stroke.S3}, 9)
	for i := 0; i < 2; i++ {
		id, err := sm.Open()
		if err != nil {
			t.Fatal(err)
		}
		feedAll(t, sm, id, sig.Samples)
		if _, _, err := sm.Flush(id); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// One oversized chunk fails inside the pipeline after
			// admission: it counts as a feed error and is still timed.
			if _, err := sm.Feed(id, make([]float64, sm.MaxChunk()+1)); !errors.Is(err, pipeline.ErrOversizedChunk) {
				t.Fatalf("oversized feed error = %v, want pipeline.ErrOversizedChunk", err)
			}
		}
	}

	status, _, body := scrape(t, ts.URL, "/metricsz")
	if status != http.StatusOK {
		t.Fatalf("/metricsz status = %d", status)
	}
	fams, err := expose.Parse(strings.NewReader(body))
	if err != nil {
		t.Fatalf("strict parse: %v", err)
	}
	byName := make(map[string]*expose.Family, len(fams))
	for i := range fams {
		byName[fams[i].Name] = &fams[i]
	}

	var st Stats
	status, _, statsz := scrape(t, ts.URL, "/statsz")
	if status != http.StatusOK {
		t.Fatalf("/statsz status = %d", status)
	}
	if err := json.Unmarshal([]byte(statsz), &st); err != nil {
		t.Fatalf("decode /statsz: %v", err)
	}
	sumShards := func(family string) float64 {
		f := byName[family]
		if f == nil {
			t.Fatalf("family %s missing from exposition", family)
		}
		if len(f.Samples) != sm.NumShards() {
			t.Errorf("family %s has %d samples, want one per shard (%d)", family, len(f.Samples), sm.NumShards())
		}
		total := 0.0
		for _, s := range f.Samples {
			total += s.Value
		}
		return total
	}
	for _, c := range []struct {
		family string
		want   float64
	}{
		{"echowrite_active_sessions", float64(st.ActiveSessions)},
		{"echowrite_queue_len", float64(st.QueueLen)},
		{"echowrite_queue_cap", float64(st.QueueCap)},
		{"echowrite_chunks_total", float64(st.Chunks)},
		{"echowrite_detections_total", float64(st.Detections)},
		{"echowrite_backpressure_rejects_total", float64(st.Backpressure)},
		{"echowrite_feed_errors_total", float64(st.FeedErrors)},
		{"echowrite_idle_evictions_total", float64(st.Evictions)},
	} {
		if got := sumShards(c.family); got != c.want {
			t.Errorf("%s summed over shards = %g, /statsz says %g", c.family, got, c.want)
		}
	}
	if st.Chunks == 0 || st.Detections == 0 || st.FeedErrors != 1 {
		t.Fatalf("smoke drove no traffic (chunks=%d detections=%d feed errors=%d); test premise broken",
			st.Chunks, st.Detections, st.FeedErrors)
	}

	single := func(family string) float64 {
		f := byName[family]
		if f == nil {
			t.Fatalf("family %s missing from exposition", family)
		}
		if len(f.Samples) != 1 {
			t.Fatalf("family %s has %d samples, want 1", family, len(f.Samples))
		}
		return f.Samples[0].Value
	}
	if got := single("echowrite_max_sessions"); got != float64(st.MaxSessions) {
		t.Errorf("max_sessions = %g, /statsz says %d", got, st.MaxSessions)
	}
	if got := single("echowrite_workers"); got != float64(st.Workers) {
		t.Errorf("workers = %g, /statsz says %d", got, st.Workers)
	}
	if got := single("echowrite_engine_pool_created_total"); got != float64(st.Pool.Created) {
		t.Errorf("pool created = %g, /statsz says %d", got, st.Pool.Created)
	}
	if got := single("echowrite_engine_pool_reused_total"); got != float64(st.Pool.Reused) {
		t.Errorf("pool reused = %g, /statsz says %d", got, st.Pool.Reused)
	}
	if got := single("echowrite_strokes_total"); got != float64(st.PerStroke.Strokes) {
		t.Errorf("strokes_total = %g, /statsz says %d", got, st.PerStroke.Strokes)
	}
	if got, want := single("echowrite_strokes_total"), sumShards("echowrite_detections_total"); got != want {
		t.Errorf("strokes_total = %g, detections_total summed over shards = %g", got, want)
	}

	// The per-stage counters must cover the same stages /statsz reports.
	stages := byName["echowrite_stage_seconds_total"]
	if stages == nil {
		t.Fatal("echowrite_stage_seconds_total missing")
	}
	for _, stage := range []string{"stft", "enhancement", "profile", "segmentation", "dtw"} {
		if stages.Sample("echowrite_stage_seconds_total", expose.Label{Name: "stage", Value: stage}) == nil {
			t.Errorf("stage %s missing from echowrite_stage_seconds_total", stage)
		}
	}

	// Every job, successful or failed, records one histogram
	// observation on its shard.
	hist := byName["echowrite_feed_latency_milliseconds"]
	if hist == nil {
		t.Fatal("feed-latency histogram missing")
	}
	var histCount float64
	views := make([]expose.HistView, sm.NumShards())
	for shard := range views {
		label := expose.Label{Name: "shard", Value: strconv.Itoa(shard)}
		s := hist.Sample("echowrite_feed_latency_milliseconds_count", label)
		if s == nil {
			t.Fatalf("histogram _count missing for shard %d", shard)
		}
		histCount += s.Value
		views[shard] = scrapedView(t, hist, label)
	}
	if want := float64(st.Chunks + st.FeedErrors); histCount != want {
		t.Errorf("histogram observations = %g, chunks + feed errors = %g", histCount, want)
	}

	// /statsz quantiles are the scraped histograms' quantiles, exactly.
	sum := expose.SumViews(views)
	want := metrics.LatencySummary{P50: sum.Quantile(0.50), P95: sum.Quantile(0.95), P99: sum.Quantile(0.99)}
	if st.FeedLatencyMs != want {
		t.Errorf("/statsz feed_latency_ms = %+v, scraped histograms give %+v", st.FeedLatencyMs, want)
	}
	if want.P50 <= 0 {
		t.Errorf("scraped feed-latency p50 = %g, want > 0 after traffic", want.P50)
	}
}

// scrapedView rebuilds one series of a scraped histogram family as a
// HistView: the finite buckets in exposition order, +Inf as Count.
func scrapedView(t *testing.T, f *expose.Family, series expose.Label) expose.HistView {
	t.Helper()
	var v expose.HistView
	for _, s := range f.Samples {
		if s.Name != f.Name+"_bucket" || !slices.Contains(s.Labels, series) {
			continue
		}
		i := slices.IndexFunc(s.Labels, func(l expose.Label) bool { return l.Name == "le" })
		if i < 0 {
			t.Fatalf("%s bucket without le label", f.Name)
		}
		if s.Labels[i].Value == "+Inf" {
			v.Count = uint64(s.Value)
			continue
		}
		le, err := strconv.ParseFloat(s.Labels[i].Value, 64)
		if err != nil {
			t.Fatal(err)
		}
		v.UpperBounds = append(v.UpperBounds, le)
		v.Cumulative = append(v.Cumulative, uint64(s.Value))
	}
	return v
}

// feedAll streams samples through Feed in pipeline-sized chunks,
// retrying on backpressure (the queue is sized to make that rare).
func feedAll(t *testing.T, svc Service, id string, samples []float64) {
	t.Helper()
	const chunk = 4096
	for off := 0; off < len(samples); off += chunk {
		end := min(off+chunk, len(samples))
		for {
			_, err := svc.Feed(id, samples[off:end])
			if err == nil {
				break
			}
			if !errors.Is(err, ErrBackpressure) {
				t.Fatal(err)
			}
		}
	}
}

// TestStageLedgerMatchesStreamTimings is the stage-ledger oracle. A
// service that has only heard silence already reports stage time on
// /metricsz. Then, after voiced sessions, that silence-only session and
// a session hit by an oversized chunk all close, the summed shard
// ledgers equal, to the nanosecond, the sum of every stream's own
// Timings() read just before Close: time after a session's last stroke,
// and sessions with no stroke at all, are counted.
func TestStageLedgerMatchesStreamTimings(t *testing.T) {
	leak.Check(t)
	sm, err := NewShardedManager(Config{MaxSessions: 8, Workers: 2, QueueDepth: 64, Prewarm: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Shutdown()
	ts := httptest.NewServer(NewServer(sm).Handler())
	defer ts.Close()
	var ids []string
	open := func() string {
		id, err := sm.Open()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		return id
	}

	quiet := open()
	silence := make([]float64, 4410) // 100 ms
	for i := 0; i < 50; i++ {
		feedAll(t, sm, quiet, silence)
	}
	_, _, body := scrape(t, ts.URL, "/metricsz")
	fams, err := expose.Parse(strings.NewReader(body))
	if err != nil {
		t.Fatalf("strict parse: %v", err)
	}
	i := slices.IndexFunc(fams, func(f expose.Family) bool { return f.Name == "echowrite_stage_seconds_total" })
	if i < 0 {
		t.Fatal("echowrite_stage_seconds_total missing")
	}
	silent := 0.0
	for _, s := range fams[i].Samples {
		silent += s.Value
	}
	if silent <= 0 {
		t.Errorf("echowrite_stage_seconds_total summed over stages = %g after 5 s of silence, want > 0", silent)
	}

	voiced := synthesizeSequence(t, stroke.Sequence{stroke.S2, stroke.S3}, 9)
	for i := 0; i < 2; i++ {
		id := open()
		feedAll(t, sm, id, voiced.Samples)
		if _, _, err := sm.Flush(id); err != nil {
			t.Fatal(err)
		}
	}
	hit := open()
	feedAll(t, sm, hit, voiced.Samples[:len(voiced.Samples)/2])
	if _, err := sm.Feed(hit, make([]float64, sm.MaxChunk()+1)); !errors.Is(err, pipeline.ErrOversizedChunk) {
		t.Fatalf("oversized feed error = %v, want pipeline.ErrOversizedChunk", err)
	}
	if sm.Snapshot().Detections == 0 {
		t.Fatal("voiced sessions detected no strokes; test premise broken")
	}

	var want pipeline.StageTimings
	for _, id := range ids {
		sess, err := sm.route(id).lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		sess.mu.Lock()
		st := sess.stream.Timings()
		sess.mu.Unlock()
		want.STFT += st.STFT
		want.Enhancement += st.Enhancement
		want.Profile += st.Profile
		want.Segmentation += st.Segmentation
		want.DTW += st.DTW
		if err := sm.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	got := sm.stageTotals()
	for _, c := range []struct {
		stage     string
		got, want time.Duration
	}{
		{"stft", got.STFT, want.STFT},
		{"enhancement", got.Enhancement, want.Enhancement},
		{"profile", got.Profile, want.Profile},
		{"segmentation", got.Segmentation, want.Segmentation},
		{"dtw", got.DTW, want.DTW},
	} {
		if c.got != c.want {
			t.Errorf("ledger %s = %v, sum of stream timings = %v", c.stage, c.got, c.want)
		}
	}
}
