// Command ewprobe is a development diagnostic: it synthesizes strokes,
// runs the pipeline, and prints either per-stroke detail (-detail) or a
// batch confusion matrix (-n reps) so thresholds can be calibrated.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/acoustic"
	"repro/internal/calibrate"
	"repro/internal/capture"
	"repro/internal/participant"
	"repro/internal/pipeline"
	"repro/internal/stroke"
)

func main() {
	detail := flag.Bool("detail", false, "print per-stroke profiles and templates")
	reps := flag.Int("n", 10, "repetitions per stroke for the confusion matrix")
	env := flag.Int("env", 1, "environment 1=meeting 2=lab 3=resting")
	norm := flag.Bool("norm", true, "amplitude-normalize profiles before DTW")
	flag.Parse()
	if err := run(*detail, *reps, acoustic.EnvironmentKind(*env), *norm); err != nil {
		fmt.Fprintln(os.Stderr, "ewprobe:", err)
		os.Exit(1)
	}
}

func run(detail bool, reps int, env acoustic.EnvironmentKind, norm bool) error {
	cfg := pipeline.DefaultConfig()
	cfg.AmplitudeNormalize = norm
	eng, err := calibrate.NewCalibratedEngine(cfg)
	if err != nil {
		return err
	}
	eng.KeepStages = detail
	participants := participant.SixParticipants()

	if detail {
		sess := participant.NewSession(participants[0], 42)
		for _, st := range stroke.AllStrokes() {
			if err := probeOne(eng, sess, st, env); err != nil {
				return err
			}
		}
		return nil
	}

	// Batch: confusion matrix over reps × participants.
	var confusion [stroke.NumStrokes][stroke.NumStrokes + 1]int // +1: miss column
	segCounts := map[int]int{}
	for pi, p := range participants {
		sess := participant.NewSession(p, uint64(1000+pi))
		for _, st := range stroke.AllStrokes() {
			for r := 0; r < reps; r++ {
				take, err := capture.Perform(sess, stroke.Sequence{st}, acoustic.Mate9(),
					acoustic.StandardEnvironment(env), uint64(pi*10000+int(st)*100+r))
				if err != nil {
					return err
				}
				rec, err := eng.Recognize(take.Signal)
				if err != nil {
					return err
				}
				segCounts[len(rec.Segments)]++
				if len(rec.Detections) == 1 {
					confusion[st.Index()][rec.Detections[0].Stroke.Index()]++
				} else {
					confusion[st.Index()][stroke.NumStrokes]++
				}
			}
		}
	}
	fmt.Printf("env=%v norm=%v reps=%d x %d participants\n", env, norm, reps, len(participants))
	fmt.Printf("segment-count histogram: %v\n", segCounts)
	fmt.Println("confusion (rows=truth, cols=S1..S6, miss):")
	correct, total := 0, 0
	for i := 0; i < stroke.NumStrokes; i++ {
		fmt.Printf("  S%d: ", i+1)
		for j := 0; j <= stroke.NumStrokes; j++ {
			fmt.Printf("%4d ", confusion[i][j])
			total += confusion[i][j]
		}
		correct += confusion[i][i]
		rowTotal := 0
		for j := 0; j <= stroke.NumStrokes; j++ {
			rowTotal += confusion[i][j]
		}
		fmt.Printf("  acc=%.1f%%\n", 100*float64(confusion[i][i])/float64(rowTotal))
	}
	fmt.Printf("overall accuracy: %.1f%%\n", 100*float64(correct)/float64(total))
	return nil
}

func probeOne(eng *pipeline.Engine, sess *participant.Session, st stroke.Stroke, env acoustic.EnvironmentKind) error {
	take, err := capture.Perform(sess, stroke.Sequence{st}, acoustic.Mate9(),
		acoustic.StandardEnvironment(env), uint64(st))
	if err != nil {
		return err
	}
	rec, err := eng.Recognize(take.Signal)
	if err != nil {
		return err
	}
	span := take.Performance.Spans[0]
	fmt.Printf("== %v  truth span [%.2f,%.2f]s  dur %.2fs\n", st, span.Start, span.End, take.Signal.Duration())
	fmt.Printf("   profile (Hz): ")
	for i, v := range rec.Profile {
		if i%2 == 0 {
			fmt.Printf("%.0f ", v)
		}
	}
	fmt.Println()
	fmt.Printf("   segments: %v\n", rec.Segments)
	for _, d := range rec.Detections {
		fmt.Printf("   seg [%d,%d] -> %v  dist=%.3f\n", d.Segment.Start, d.Segment.End, d.Stroke, d.Distances)
	}
	tpl := eng.TemplateLibrary()[st.Index()]
	fmt.Printf("   template(%v): ", st)
	for i, v := range tpl {
		if i%2 == 0 {
			fmt.Printf("%.0f ", v)
		}
	}
	fmt.Println()
	return nil
}
