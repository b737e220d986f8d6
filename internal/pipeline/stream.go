package pipeline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/segment"
)

// ErrOversizedChunk is returned by Stream.Feed when a single call would
// grow the buffered residue past the stream's chunk cap. Callers should
// split the input into smaller chunks; the stream state is unchanged.
var ErrOversizedChunk = errors.New("pipeline: chunk exceeds stream residue cap")

// DefaultMaxChunk bounds how many samples one Feed call may buffer
// (≈24 s at 44.1 kHz). A serving front end exposed to untrusted clients
// should set Stream.MaxChunk far lower (one network frame).
const DefaultMaxChunk = 1 << 20

// Stream is the incremental recognizer matching the paper's prototype
// (§IV-A): audio arrives in arbitrary chunks, STFT frames are produced as
// soon as a hop completes, and detections are emitted as strokes finish —
// without waiting for the recording to end.
//
// The static-background template for spectral subtraction is estimated
// once from the first StaticFrames frames of the stream (the paper's
// "initial 5 frames"), so streams must begin with a short rest, exactly
// as the batch pipeline requires.
//
// A Stream keeps a bounded window of spectrogram columns (MaxWindow
// frames); it runs over MaxWindow only while a stroke not yet emitted
// could still start before the window's front. Enhancement is
// incremental: a per-column cache, compacted with the window, lets each
// pass recompute only the columns a feed added plus a fixed horizon
// behind them, so a feed costs O(new columns) in the per-column stages;
// the window-global steps (normalization span, hole filling, speck
// removal) and contour extraction still cover the whole window, exactly
// as a from-scratch pass would.
type Stream struct {
	eng *Engine
	// MaxWindow bounds the retained spectrogram columns; 0 means 1024
	// frames (≈24 s at the paper's hop).
	MaxWindow int
	// MaxChunk caps how many samples a single Feed call may leave
	// buffered; 0 means DefaultMaxChunk. Oversized calls fail with
	// ErrOversizedChunk instead of growing memory without bound.
	MaxChunk int

	// testFrameHook, when set, runs before each frame extraction in
	// Feed and Flush; a non-nil error aborts the extraction. Tests use it
	// to reach the error exits, which are otherwise unreachable
	// in-process (FrameColumn always sees exact-size frames), to pin
	// that accrued stage time survives an error return.
	testFrameHook func() error
	// testStageHook, when set, runs at the end of each timed stage of a
	// detection pass ("enhance", "profile", "segment"); a non-nil error
	// fails the pass there, for the same purpose.
	testStageHook func(stage string) error

	samples     []float64   // residue not yet consumed into frames, a window into sampleBuf
	sampleBuf   []float64   // backing store of samples, refilled from its front
	columns     [][]float64 // raw magnitude columns in the window
	frameOffset int         // absolute index of columns[0]
	static      []float64   // spectral-subtraction template
	emittedEnd  int         // absolute frame index before which detections were emitted
	keepFrom    int         // absolute frame before which no unemitted stroke can start
	enh         enhancer    // per-column enhancement cache, aligned with columns
	timings     StageTimings
}

// NewStream wraps an engine for incremental use. The engine must not be
// used concurrently by other callers while the stream is active.
func NewStream(eng *Engine) *Stream {
	return &Stream{eng: eng}
}

// FramesSeen returns how many STFT frames have been produced so far.
func (s *Stream) FramesSeen() int { return s.frameOffset + len(s.columns) }

// Engine returns the engine this stream wraps. The engine stays bound to
// the stream for its whole pooled lifetime; callers must not use it
// concurrently with Feed/Flush.
func (s *Stream) Engine() *Engine { return s.eng }

// Timings returns the accumulated per-stage processing time since the
// stream was created or last Reset, including the time of calls that
// failed. They measure real serving cost: each feed pays incremental
// enhancement plus the window-wide steps and contour extraction, not the
// batch pipeline's one-pass cost.
func (s *Stream) Timings() StageTimings { return s.timings }

// Reset clears all per-recording state — buffered samples, spectrogram
// window, the static-background template, and emission bookkeeping — so
// the stream (and its engine's FFT machinery) can be reused for a new
// recording. Tuning fields (MaxWindow, MaxChunk) are preserved. Memory
// that scales with the window — the columns and their enhancement cache
// — is released, so an idle pooled stream holds only fixed-size
// buffers. A reset stream behaves identically to a freshly constructed
// one.
func (s *Stream) Reset() {
	s.samples = s.sampleBuf[:0]
	clear(s.columns)
	s.columns = s.columns[:0]
	s.frameOffset = 0
	s.static = nil
	s.emittedEnd = 0
	s.keepFrom = 0
	s.enh.reset()
	s.timings = StageTimings{}
}

// maxChunk resolves the residue cap.
func (s *Stream) maxChunk() int {
	if s.MaxChunk > 0 {
		return s.MaxChunk
	}
	return DefaultMaxChunk
}

// Feed appends raw samples (at the configured sample rate) and returns
// any strokes that completed. Detections are emitted exactly once, in
// order, with Segment frame indices absolute from the stream start.
//
// A call that would buffer more than MaxChunk samples fails with an
// error wrapping ErrOversizedChunk before any state changes; the caller
// can split the chunk and retry.
//
// Feed is Accumulate followed by the in-stream hop loop (one
// FrameColumn per completed hop) and a Detect pass; callers that time
// or compute the columns themselves drive those steps separately via
// PendingFrames/AcceptColumns.
//
// ew:hotpath — the streaming STFT column loop runs once per hop on the
// serving path; the hotalloc analyzer keeps allocations out of it.
func (s *Stream) Feed(chunk []float64) ([]Detection, error) {
	if err := s.Accumulate(chunk); err != nil {
		return nil, err
	}
	cfg := s.eng.cfg.STFT
	t0 := time.Now()
	var err error
	for len(s.samples) >= cfg.FFTSize {
		if s.testFrameHook != nil {
			if err = s.testFrameHook(); err != nil {
				break
			}
		}
		var col []float64
		if col, err = s.eng.stft.FrameColumn(s.samples[:cfg.FFTSize]); err != nil {
			err = fmt.Errorf("pipeline: stream frame: %w", err)
			break
		}
		s.samples = s.samples[cfg.HopSize:]
		s.pushColumn(col)
	}
	// Accrue the hop loop's cost on every exit: an error mid-extraction
	// has already spent the time, and the serving layer folds these
	// deltas into its stage accounting whether or not the feed failed.
	s.timings.STFT += time.Since(t0)
	if err != nil {
		return nil, err
	}
	return s.process(false)
}

// Accumulate appends raw samples to the stream's residue without
// extracting any frames — the first half of Feed. A call that would
// buffer more than MaxChunk samples fails with an error wrapping
// ErrOversizedChunk before any state changes.
func (s *Stream) Accumulate(chunk []float64) error {
	if total := len(s.samples) + len(chunk); total > s.maxChunk() {
		return fmt.Errorf("%w: %d buffered samples (cap %d)",
			ErrOversizedChunk, total, s.maxChunk())
	}
	if need := len(s.samples) + len(chunk); need > cap(s.samples) {
		// Slide the residue back to the front of its buffer instead of
		// letting append reallocate: the buffer stops growing once it holds
		// the largest residue plus chunk, so steady feeding allocates
		// nothing here.
		if need > cap(s.sampleBuf) {
			s.sampleBuf = make([]float64, 0, need+need/4)
		}
		s.samples = append(s.sampleBuf[:0], s.samples...)
	}
	s.samples = append(s.samples, chunk...)
	return nil
}

// PendingFrames reports how many complete FFT frames the buffered
// residue holds — the number of FrameColumn calls the next Feed's hop
// loop would make, and the number of frames an external column
// computer may read with PendingFrame before committing columns via
// AcceptColumns.
func (s *Stream) PendingFrames() int {
	cfg := s.eng.cfg.STFT
	if len(s.samples) < cfg.FFTSize {
		return 0
	}
	return (len(s.samples)-cfg.FFTSize)/cfg.HopSize + 1
}

// PendingFrame returns the i-th pending frame (0 <= i < PendingFrames)
// as a view into the residue buffer. The view is valid only until the
// next call that mutates the stream (Accumulate, AcceptColumns, Feed,
// Flush, Reset).
func (s *Stream) PendingFrame(i int) []float64 {
	cfg := s.eng.cfg.STFT
	off := i * cfg.HopSize
	return s.samples[off : off+cfg.FFTSize]
}

// AcceptColumns commits externally computed magnitude columns for the
// first len(cols) pending frames, consuming one hop of residue per
// column — the exact state transition the in-stream hop loop performs,
// so a stream driven through the split API is indistinguishable from
// one running Feed. The stream takes ownership of each column slice
// (they join the spectrogram window); callers must hand over freshly
// allocated columns, not reused scratch. Columns beyond PendingFrames,
// or of the wrong width, are rejected with the stream unchanged.
func (s *Stream) AcceptColumns(cols [][]float64) error {
	if len(cols) == 0 {
		return nil
	}
	if pending := s.PendingFrames(); len(cols) > pending {
		return fmt.Errorf("pipeline: %d columns offered for %d pending frames", len(cols), pending)
	}
	bins := s.eng.stft.Bins()
	for i, col := range cols {
		if len(col) != bins {
			return fmt.Errorf("pipeline: column %d has %d bins, want %d", i, len(col), bins)
		}
	}
	hop := s.eng.cfg.STFT.HopSize
	for _, col := range cols {
		s.samples = s.samples[hop:]
		s.pushColumn(col)
	}
	return nil
}

// AccrueSTFT folds externally measured column-computation time into the
// stream's STFT stage timing, keeping Timings meaningful when the
// caller computes the columns outside Feed.
func (s *Stream) AccrueSTFT(d time.Duration) { s.timings.STFT += d }

// Detect brings enhancement up to date with the current window and
// returns newly finalized detections — the tail half of Feed, for
// callers that committed columns via AcceptColumns.
func (s *Stream) Detect() ([]Detection, error) { return s.process(false) }

// Flush processes whatever remains (zero-padding the final partial frame)
// and emits any still-open detections. The stream remains usable.
func (s *Stream) Flush() ([]Detection, error) {
	if err := s.flushFrame(); err != nil {
		return nil, err
	}
	return s.process(true)
}

// flushFrame extracts the zero-padded final partial frame, when the
// residue holds more than a hop, accruing its cost to the STFT stage on
// every exit.
func (s *Stream) flushFrame() error {
	cfg := s.eng.cfg.STFT
	if len(s.samples) <= cfg.HopSize {
		return nil
	}
	t0 := time.Now()
	defer func() { s.timings.STFT += time.Since(t0) }()
	if s.testFrameHook != nil {
		if err := s.testFrameHook(); err != nil {
			return err
		}
	}
	frame := make([]float64, cfg.FFTSize)
	copy(frame, s.samples)
	col, err := s.eng.stft.FrameColumn(frame)
	if err != nil {
		return fmt.Errorf("pipeline: stream flush: %w", err)
	}
	s.samples = s.samples[:0]
	s.pushColumn(col)
	return nil
}

// pushColumn appends one magnitude column to the window, building the
// static template once the window holds the first StaticFrames columns
// and compacting the window past MaxWindow.
func (s *Stream) pushColumn(col []float64) {
	s.columns = append(s.columns, col)
	if s.static == nil && len(s.columns) == s.eng.cfg.StaticFrames {
		// The window still starts at frame 0: nothing drops before a
		// process pass has moved keepFrom, and process waits for the
		// template.
		s.static = staticTemplate(s.columns)
	}
	maxW := s.MaxWindow
	if maxW == 0 {
		maxW = 1024
	}
	// Compact the window, but never drop frames where a stroke not yet
	// emitted could still start. The dropped slots are cleared so the
	// backing array does not keep their columns alive.
	if len(s.columns) > maxW {
		drop := min(len(s.columns)-maxW, s.keepFrom-s.frameOffset)
		if drop > 0 {
			clear(s.columns[:drop])
			s.columns = s.columns[drop:]
			s.frameOffset += drop
			s.enh.drop(drop)
		}
	}
}

// emitSafety is how many frames behind the stream head a segment must end
// before it is considered final (the quiet run plus smear).
const emitSafety = 14

// process brings enhancement up to date with the window, extracts the
// contour and segments it, and emits newly finalized detections. When
// final is true, open segments are emitted regardless of the safety
// margin. Each stage's time accrues whether or not it fails.
func (s *Stream) process(final bool) ([]Detection, error) {
	if s.static == nil || len(s.columns) < s.eng.cfg.StaticFrames+4 {
		return nil, nil
	}
	t0 := time.Now()
	bin := s.enh.run(s.eng, s.columns, s.static)
	err := s.stageHook("enhance")
	s.timings.Enhancement += time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stream enhance: %w", err)
	}
	t0 = time.Now()
	profile, err := s.eng.contour(bin, s.eng.cfg.mvceConfig())
	if err == nil {
		err = s.stageHook("profile")
	}
	s.timings.Profile += time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stream contour: %w", err)
	}
	t0 = time.Now()
	segs, err := segment.Detect(profile, s.eng.cfg.Segment)
	if err == nil {
		err = s.stageHook("segment")
	}
	s.timings.Segmentation += time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stream segment: %w", err)
	}
	var out []Detection
	head := len(profile)
	// The earliest frame where a stroke not yet emitted could still
	// start: one maximal stroke before the emission margin, or the first
	// pending segment's start if that is earlier. A pending segment's
	// start can still move earlier on a later pass, once more audio or a
	// compaction changes the window-global steps, so it alone does not
	// bound the drop.
	keep := s.frameOffset + head - emitSafety - s.eng.cfg.Segment.MaxLen()
	for _, sg := range segs {
		absStart := sg.Start + s.frameOffset
		absEnd := sg.End + s.frameOffset
		if absStart < s.emittedEnd {
			continue // already emitted
		}
		if !final && sg.End > head-emitSafety {
			keep = min(keep, absStart) // may still be growing
			break
		}
		slice, err := segment.Slice(profile, sg)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		det, err := s.eng.ClassifyProfile(slice)
		s.timings.DTW += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stream classify: %w", err)
		}
		det.Segment = segment.Segment{Start: absStart, End: absEnd}
		det.Contaminated = s.enh.burstIn(sg.Start, sg.End)
		// ew:allow hotprop: one append per classified stroke per flush —
		// detections are user-scale events, not per-column work.
		out = append(out, det)
		s.emittedEnd = absEnd + 1
	}
	s.keepFrom = max(keep, s.emittedEnd)
	return out, nil
}

// stageHook runs testStageHook, when set.
func (s *Stream) stageHook(stage string) error {
	if s.testStageHook == nil {
		return nil
	}
	return s.testStageHook(stage)
}
