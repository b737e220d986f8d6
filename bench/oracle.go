package main

import (
	"fmt"
	"sync"

	"repro/internal/infer"
	"repro/internal/lexicon"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/stroke"
)

// ewserveMaxChunk is cmd/ewserve's default -max-chunk; replay streams use
// it so oversized-chunk behaviour matches the server.
const ewserveMaxChunk = 1 << 18

// newRecognizer builds word inference the way cmd/ewserve does.
func newRecognizer() (*infer.Recognizer, error) {
	dict, err := lexicon.NewDictionary(stroke.DefaultScheme(), lexicon.DefaultWords())
	if err != nil {
		return nil, err
	}
	return infer.NewRecognizer(dict, infer.DefaultConfusion(), lexicon.DefaultBigram(), infer.DefaultConfig())
}

// replayResult is one session replayed sequentially: the canonical
// response to every op, and how many scored flushes had the written word
// among their candidates.
type replayResult struct {
	resp         []string
	scored, hits int
}

// stepper drives one stream through a session's ops. The oracle feeds
// whole chunks; the traced run substitutes an instrumented stepper.
type stepper interface {
	feed(st *pipeline.Stream, chunk []float64) ([]pipeline.Detection, error)
	flush(st *pipeline.Stream) ([]pipeline.Detection, error)
	recognize(rec *infer.Recognizer, seq stroke.Sequence) ([]infer.Candidate, error)
}

type plainStepper struct{}

func (plainStepper) feed(st *pipeline.Stream, chunk []float64) ([]pipeline.Detection, error) {
	return st.Feed(chunk)
}
func (plainStepper) flush(st *pipeline.Stream) ([]pipeline.Detection, error) { return st.Flush() }
func (plainStepper) recognize(rec *infer.Recognizer, seq stroke.Sequence) ([]infer.Candidate, error) {
	return rec.Recognize(seq)
}

// decodePCM16 mirrors the server's wire decode.
func decodePCM16(b []byte) []float64 {
	out := make([]float64, len(b)/2)
	for i := range out {
		out[i] = float64(int16(uint16(b[2*i])|uint16(b[2*i+1])<<8)) / 32768
	}
	return out
}

// replay runs one session through a fresh stream exactly as the server's
// session manager does: detections accumulate into the word's stroke
// sequence, and each flush recognizes and resets it.
func replay(eng *pipeline.Engine, rec *infer.Recognizer, s *session, step stepper) (*replayResult, error) {
	st := pipeline.NewStream(eng)
	st.MaxChunk = ewserveMaxChunk
	out := &replayResult{resp: make([]string, len(s.Ops))}
	var seq stroke.Sequence
	for k, o := range s.Ops {
		var (
			dets  []pipeline.Detection
			cands []infer.Candidate
			err   error
		)
		if o.Flush {
			dets, err = step.flush(st)
		} else {
			dets, err = step.feed(st, decodePCM16(s.PCM[o.Off:o.Off+o.N]))
		}
		if err != nil {
			return nil, fmt.Errorf("%s op %d: %w", s.Name, k, err)
		}
		for _, d := range dets {
			seq = append(seq, d.Stroke)
		}
		if o.Flush {
			if len(seq) > 0 {
				if cands, err = step.recognize(rec, seq); err != nil {
					return nil, fmt.Errorf("%s op %d: %w", s.Name, k, err)
				}
			}
			seq = nil
			if o.Word != "" {
				out.scored++
				for _, c := range cands {
					if c.Word == o.Word {
						out.hits++
						break
					}
				}
			}
		}
		out.resp[k] = served{D: detectionsJSON(dets), W: candidatesJSON(cands)}.canon()
	}
	return out, nil
}

func detectionsJSON(dets []pipeline.Detection) []serve.DetectionJSON {
	var out []serve.DetectionJSON
	for _, d := range dets {
		out = append(out, serve.DetectionJSON{
			Stroke:       d.Stroke.String(),
			StartFrame:   d.Segment.Start,
			EndFrame:     d.Segment.End,
			Contaminated: d.Contaminated,
		})
	}
	return out
}

func candidatesJSON(cands []infer.Candidate) []serve.CandidateJSON {
	var out []serve.CandidateJSON
	for _, c := range cands {
		out = append(out, serve.CandidateJSON{Word: c.Word, Score: c.Score, Corrected: c.Corrected})
	}
	return out
}

// replayAll replays every plan session once, nproc at a time, each
// worker with its own engine. newStep gives each worker its stepper.
func replayAll(p *plan, newStep func() stepper) ([]*replayResult, error) {
	rec, err := newRecognizer()
	if err != nil {
		return nil, err
	}
	out := make([]*replayResult, len(p.Sessions))
	errs := make([]error, nproc())
	next := make(chan int, len(p.Sessions))
	for i := range p.Sessions {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng, err := pipeline.NewEngine(pipeline.DefaultConfig())
			if err != nil {
				errs[w] = err
				return
			}
			step := newStep()
			for i := range next {
				if out[i], err = replay(eng, rec, &p.Sessions[i], step); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkServed compares every served response with the replay of its
// session and returns the first mismatch.
func checkServed(p *plan, res *runResult, ref []*replayResult) error {
	for _, sr := range res.runs {
		want := ref[sr.sess]
		for k, r := range sr.results {
			if r.err != nil || r.done.IsZero() {
				continue // counted as failed already
			}
			if r.resp != want.resp[k] {
				return fmt.Errorf("session %s (%s) op %d: served %s, replay %s",
					sr.id, p.Sessions[sr.sess].Name, k, r.resp, want.resp[k])
			}
		}
	}
	return nil
}
