// Package repro's root benchmark harness: one benchmark per paper table
// and figure (plus the ablation suite and pipeline micro-benchmarks).
// Each figure benchmark executes the corresponding experiment end to end
// at a reduced-but-shape-preserving protocol size and reports the
// reproduced headline number as a custom metric.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Paper-scale protocols are driven by cmd/ewbench -full instead.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/acoustic"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/participant"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/stroke"
)

// benchCfg bounds audio-heavy experiments so a full -bench=. pass stays
// tractable while still sweeping every dimension.
func benchCfg() experiments.Config {
	return experiments.Config{Reps: 2, Participants: 2, Seed: 1}
}

// runExperiment executes one registered experiment per benchmark
// iteration and reports a headline metric parsed from the table.
func runExperiment(b *testing.B, name string, cfg experiments.Config, metric func(*experiments.Table) (float64, string)) {
	b.Helper()
	e := experiments.Find(name)
	if e == nil {
		b.Fatalf("experiment %q not registered", name)
	}
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil {
			v, unit := metric(tab)
			b.ReportMetric(v, unit)
		}
	}
}

// lastRowPct parses a percentage from the last row at the given column.
func lastRowPct(col int) func(*experiments.Table) (float64, string) {
	return func(t *experiments.Table) (float64, string) {
		row := t.Rows[len(t.Rows)-1]
		v, _ := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
		return v, "pct"
	}
}

// lastRowFloat parses a float from the last row at the given column.
func lastRowFloat(col int, unit string) func(*experiments.Table) (float64, string) {
	return func(t *experiments.Table) (float64, string) {
		row := t.Rows[len(t.Rows)-1]
		v, _ := strconv.ParseFloat(strings.Fields(row[col])[0], 64)
		return v, unit
	}
}

// ---- Preliminary user study (paper §II-A) ----

func BenchmarkFig04Learnability(b *testing.B) {
	runExperiment(b, "fig4", experiments.Quick(), lastRowPct(1))
}

func BenchmarkFig05LearnSpeed(b *testing.B) {
	runExperiment(b, "fig5", experiments.Quick(), lastRowFloat(1, "WPM"))
}

func BenchmarkFig06LearnAccuracy(b *testing.B) {
	runExperiment(b, "fig6", experiments.Quick(), nil)
}

// ---- Signal pipeline artifacts (paper §III) ----

func BenchmarkFig08PipelineStages(b *testing.B) {
	runExperiment(b, "fig8", benchCfg(), nil)
}

func BenchmarkFig09Profiles(b *testing.B) {
	runExperiment(b, "fig9", benchCfg(), nil)
}

func BenchmarkFig10Segmentation(b *testing.B) {
	runExperiment(b, "fig10", experiments.Config{Reps: 1, Participants: 2, Seed: 1},
		func(t *experiments.Table) (float64, string) {
			for _, row := range t.Rows {
				if row[0] == "recall" {
					v, _ := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
					return v, "recall_pct"
				}
			}
			return 0, "recall_pct"
		})
}

// ---- Stroke recognition (paper §V-A) ----

func BenchmarkFig11Devices(b *testing.B) {
	runExperiment(b, "fig11", experiments.Config{Reps: 1, Participants: 2, Seed: 1}, nil)
}

func BenchmarkFig12Environments(b *testing.B) {
	runExperiment(b, "fig12", benchCfg(), lastRowPct(7))
}

func BenchmarkFig13Participants(b *testing.B) {
	runExperiment(b, "fig13", benchCfg(), nil)
}

// ---- Word recognition (paper §V-B) ----

func BenchmarkTable1Words(b *testing.B) {
	runExperiment(b, "table1", experiments.Quick(), nil)
}

func BenchmarkFig14TopK(b *testing.B) {
	runExperiment(b, "fig14", experiments.Config{Reps: 1, Participants: 2, Seed: 1}, lastRowPct(5))
}

func BenchmarkFig15Correction(b *testing.B) {
	runExperiment(b, "fig15", experiments.Config{Reps: 1, Participants: 2, Seed: 1}, lastRowPct(1))
}

// ---- Text-entry speed (paper §V-B3/4) ----

func BenchmarkFig16EntrySpeed(b *testing.B) {
	runExperiment(b, "fig16", experiments.Config{Reps: 1, Participants: 2, Seed: 1},
		lastRowFloat(1, "WPM"))
}

func BenchmarkFig17LPM(b *testing.B) {
	runExperiment(b, "fig17", experiments.Config{Reps: 1, Participants: 2, Seed: 1}, nil)
}

func BenchmarkFig18Training(b *testing.B) {
	runExperiment(b, "fig18", experiments.Config{Reps: 1, Participants: 1, Seed: 1},
		lastRowFloat(1, "WPM_final"))
}

// ---- System overheads (paper §V-C) ----

func BenchmarkFig19StageTime(b *testing.B) {
	runExperiment(b, "fig19", experiments.Config{Reps: 2, Participants: 1, Seed: 1}, nil)
}

func BenchmarkFig20Energy(b *testing.B) {
	runExperiment(b, "fig20", experiments.Quick(),
		func(t *experiments.Table) (float64, string) {
			for _, row := range t.Rows {
				if row[0] == "30" {
					v, _ := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
					return v, "battery_pct"
				}
			}
			return 0, "battery_pct"
		})
}

func BenchmarkFig21CPU(b *testing.B) {
	runExperiment(b, "fig21", experiments.Config{Reps: 2, Participants: 1, Seed: 1}, nil)
}

// ---- Ablations (DESIGN.md §6) ----

func BenchmarkAblationTemplates(b *testing.B) {
	runExperiment(b, "ablation-templates", experiments.Config{Reps: 1, Participants: 2, Seed: 1}, nil)
}

func BenchmarkAblationContour(b *testing.B) {
	runExperiment(b, "ablation-contour", experiments.Config{Reps: 1, Participants: 2, Seed: 1}, nil)
}

func BenchmarkAblationSegmentation(b *testing.B) {
	runExperiment(b, "ablation-segmentation", experiments.Config{Reps: 1, Participants: 1, Seed: 1}, nil)
}

func BenchmarkAblationDTWBand(b *testing.B) {
	runExperiment(b, "ablation-dtw-band", experiments.Config{Reps: 1, Participants: 1, Seed: 1}, nil)
}

func BenchmarkAblationCorrectionScope(b *testing.B) {
	runExperiment(b, "ablation-correction", experiments.Config{Reps: 1, Participants: 1, Seed: 1}, nil)
}

func BenchmarkAblationSTFT(b *testing.B) {
	runExperiment(b, "ablation-stft", experiments.Config{Reps: 1, Participants: 1, Seed: 1}, nil)
}

// ---- Pipeline micro-benchmarks ----

// BenchmarkPipelineRecognizeStroke measures one end-to-end recognition of
// a single-stroke recording (the paper's <200 ms real-time budget).
func BenchmarkPipelineRecognizeStroke(b *testing.B) {
	sys, err := core.New(core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sess := participant.NewSession(participant.SixParticipants()[0], 1)
	rec, err := capture.Perform(sess, stroke.Sequence{stroke.S2},
		acoustic.Mate9(), acoustic.StandardEnvironment(acoustic.MeetingRoom), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RecognizeStrokes(rec.Signal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSceneSynthesis measures the acoustic simulator itself.
func BenchmarkSceneSynthesis(b *testing.B) {
	sess := participant.NewSession(participant.SixParticipants()[0], 1)
	perf, err := sess.Perform(stroke.Sequence{stroke.S3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scene := &acoustic.Scene{
			Device:     acoustic.Mate9(),
			Env:        acoustic.StandardEnvironment(acoustic.LabArea),
			Reflectors: acoustic.HandReflectors(perf.Finger),
			Duration:   perf.Finger.Duration(),
			Seed:       uint64(i),
		}
		if _, err := scene.Synthesize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWordRecognition measures the inference layer alone (Algorithm
// 2 over a 6-stroke observation).
func BenchmarkWordRecognition(b *testing.B) {
	sys, err := core.New(core.Options{
		Pipeline:          core.DefaultOptions().Pipeline,
		Inference:         core.DefaultOptions().Inference,
		AnalyticTemplates: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	seq, err := sys.Dictionary().Scheme().Encode("people")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Recognizer().Recognize(seq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDownsample(b *testing.B) {
	runExperiment(b, "ablation-downsample", experiments.Config{Reps: 1, Participants: 1, Seed: 1}, nil)
}

func BenchmarkAblationScoring(b *testing.B) {
	runExperiment(b, "ablation-scoring", experiments.Config{Reps: 1, Participants: 1, Seed: 1}, nil)
}

func BenchmarkAblationDictSize(b *testing.B) {
	runExperiment(b, "ablation-dictsize", experiments.Config{Reps: 1, Participants: 1, Seed: 1}, nil)
}

// ---- Serving micro-benchmarks ----

// BenchmarkStreamFeed1024 measures streaming ingest at a realistic
// microphone delivery size (1024 samples ≈ 23 ms at 44.1 kHz), reusing
// one pooled stream via Reset between iterations. One untimed pass
// first grows the stream's buffers, so every timed pass does the same
// work and allocs/op is exact.
func BenchmarkStreamFeed1024(b *testing.B) {
	eng, err := pipeline.NewEngine(pipeline.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sess := participant.NewSession(participant.SixParticipants()[0], 1)
	rec, err := capture.Perform(sess, stroke.Sequence{stroke.S2},
		acoustic.Mate9(), acoustic.StandardEnvironment(acoustic.MeetingRoom), 1)
	if err != nil {
		b.Fatal(err)
	}
	samples := rec.Signal.Samples
	stream := pipeline.NewStream(eng)
	pass := func() {
		stream.Reset()
		for off := 0; off < len(samples); off += 1024 {
			end := off + 1024
			if end > len(samples) {
				end = len(samples)
			}
			if _, err := stream.Feed(samples[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := stream.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	pass()
	b.SetBytes(int64(len(samples) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(rec.Signal.Duration()*float64(b.N)/b.Elapsed().Seconds(), "audio_s/s")
}

// BenchmarkStreamFeedSteady measures the per-chunk cost of a long-running
// session: one 1024-sample feed (one STFT column) into a stream whose
// 1024-column window is already full. The six-stroke recording loops,
// trimmed to whole hops so its columns repeat exactly; run it at a fixed
// -benchtime Nx so every run covers the same chunks and allocs/op is
// exact.
func BenchmarkStreamFeedSteady(b *testing.B) {
	eng, err := pipeline.NewEngine(pipeline.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	hop := eng.Config().STFT.HopSize
	sess := participant.NewSession(participant.SixParticipants()[0], 1)
	rec, err := capture.Perform(sess,
		stroke.Sequence{stroke.S1, stroke.S2, stroke.S3, stroke.S4, stroke.S5, stroke.S6},
		acoustic.Mate9(), acoustic.StandardEnvironment(acoustic.MeetingRoom), 1)
	if err != nil {
		b.Fatal(err)
	}
	samples := rec.Signal.Samples[:len(rec.Signal.Samples)/hop*hop]
	stream := pipeline.NewStream(eng)
	off := 0
	feed := func(n int) {
		end := min(off+n, len(samples))
		if _, err := stream.Feed(samples[off:end]); err != nil {
			b.Fatal(err)
		}
		off = end % len(samples)
	}
	// Fill the window in ~1 s chunks, then keep some margin past it.
	for stream.FramesSeen() < 1024+64 {
		feed(43 * hop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(1024)
	}
}

// BenchmarkEnginePoolCheckout measures the warm checkout/return path a
// session pays on open/close — the cost pooling is meant to amortize
// versus BenchmarkEnginePoolCold's full engine construction.
func BenchmarkEnginePoolCheckout(b *testing.B) {
	pool, err := serve.NewEnginePool(nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := pool.Get()
		if err != nil {
			b.Fatal(err)
		}
		pool.Put(s)
	}
}

// BenchmarkEnginePoolCold measures building a recognizer engine from
// scratch (FFT plan, window tables, analytic templates) — what every
// request would pay without the pool.
func BenchmarkEnginePoolCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.NewEngine(pipeline.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
