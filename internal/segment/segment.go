// Package segment implements the paper's acceleration-based stroke
// segmentation (§III-B): locating start and end frames of individual
// strokes within a continuous Doppler profile by detecting abrupt changes
// in the profile's first-order differential.
//
// The key insight is that writing a stroke is a short, high-acceleration
// movement, while interference — repositioning the hand between strokes, a
// bystander walking past — sustains speed but not acceleration, so an
// acceleration gate separates them.
package segment

import (
	"fmt"
	"math"

	"repro/internal/dsp"
)

// Config holds the segmentation thresholds.
type Config struct {
	// StartThreshold is β: the |acceleration| (Hz per frame, as produced
	// by Eq. 2 over the per-frame profile) above which a stroke is
	// considered underway. The paper quotes 40, but derives it from a
	// Hz-per-second argument (Eq. 4) while Eq. 2 operates per frame
	// (23 ms hops), so the paper's own units are ambiguous; our
	// calibrated motion model yields stroke onsets of 12–20 Hz/frame and
	// repositioning under 5 Hz/frame, so DefaultConfig gates at 10. The
	// paper's γ = β/2 relation is preserved.
	StartThreshold float64
	// EndThreshold is γ: strokes end when |acceleration| stays below γ
	// for EndRun consecutive frames.
	EndThreshold float64
	// StartRun is the number of consecutive frames |acceleration| must
	// exceed β before a stroke onset is accepted; it rejects isolated
	// acceleration spikes from contour noise during repositioning. Zero
	// means 2. (The paper triggers on a single point; its 40-unit β is
	// high enough that spikes do not reach it.)
	StartRun int
	// EndRun is the number of consecutive quiet frames ending a stroke
	// (paper: a point and its following nine → 10).
	EndRun int
	// EndSpeedFloor requires the |Doppler shift| itself to be below this
	// many Hz during the quiet run, so the slow mid-stroke plateaus of
	// long curved strokes (S5) are not mistaken for stroke ends. Zero
	// disables the check (the paper's literal rule).
	EndSpeedFloor float64
	// MinFrames discards segments shorter than this many frames
	// (spurious blips); zero means 4.
	MinFrames int
	// MaxFrames truncates runaway segments; zero means 60 (≈1.4 s, the
	// paper's "no more than 1 second" stroke bound with margin).
	MaxFrames int
}

// DefaultConfig returns thresholds calibrated for the canonical stroke
// shapes (see StartThreshold doc).
func DefaultConfig() Config {
	return Config{
		StartThreshold: 8,
		EndThreshold:   4,
		StartRun:       2,
		EndRun:         10,
		EndSpeedFloor:  16,
		MinFrames:      4,
		MaxFrames:      60,
	}
}

// MaxLen returns MaxFrames with its default resolved: the length at
// which Detect truncates a segment.
func (c Config) MaxLen() int {
	if c.MaxFrames == 0 {
		return 60
	}
	return c.MaxFrames
}

// Validate checks threshold sanity.
func (c Config) Validate() error {
	if c.StartThreshold <= 0 {
		return fmt.Errorf("segment: start threshold must be positive, got %g", c.StartThreshold)
	}
	if c.EndThreshold <= 0 || c.EndThreshold > c.StartThreshold {
		return fmt.Errorf("segment: end threshold must be in (0, %g], got %g", c.StartThreshold, c.EndThreshold)
	}
	if c.EndRun <= 0 {
		return fmt.Errorf("segment: end run must be positive, got %d", c.EndRun)
	}
	return nil
}

// Segment is one detected stroke interval, inclusive frame indices.
type Segment struct {
	Start, End int
}

// Len returns the segment length in frames.
func (s Segment) Len() int { return s.End - s.Start + 1 }

// Detect finds stroke segments in a Doppler profile (Hz per frame).
func Detect(profile []float64, cfg Config) ([]Segment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	minFrames := cfg.MinFrames
	if minFrames == 0 {
		minFrames = 4
	}
	maxFrames := cfg.MaxLen()
	n := len(profile)
	if n == 0 {
		return nil, nil
	}
	startRun := cfg.StartRun
	if startRun == 0 {
		startRun = 2
	}
	acc := dsp.SmoothDerivative(profile)
	// quiet reports whether frame k is below the end thresholds. It
	// captures only loop invariants, so it is hoisted out of the
	// per-segment scan rather than allocated each iteration.
	quiet := func(k int) bool {
		if math.Abs(acc[k]) >= cfg.EndThreshold {
			return false
		}
		return cfg.EndSpeedFloor <= 0 || math.Abs(profile[k]) < cfg.EndSpeedFloor
	}
	var segs []Segment
	i := 0
	for i < n {
		// Find the first point P opening a run of startRun frames with
		// |acc| above β.
		p := -1
		for ; i < n; i++ {
			if math.Abs(acc[i]) <= cfg.StartThreshold {
				continue
			}
			run := 1
			for k := i + 1; k < n && run < startRun; k++ {
				if math.Abs(acc[k]) > cfg.StartThreshold {
					run++
				} else {
					break
				}
			}
			if run >= startRun {
				p = i
				break
			}
		}
		if p < 0 {
			break
		}
		// Search backward from P for the point whose shift is closest to
		// zero — the stroke's true start.
		start := p
		bestAbs := math.Abs(profile[p])
		for j := p - 1; j >= 0; j-- {
			a := math.Abs(profile[j])
			if a <= bestAbs {
				bestAbs = a
				start = j
			} else {
				break
			}
			// Zero shift is assigned literally by mvce for frames with no
			// active pixels, never computed, so exact equality is the
			// right test for "the contour touched rest".
			// ew:exact
			if a == 0 {
				break
			}
			if p-j > maxFrames {
				break
			}
		}
		if len(segs) > 0 && start <= segs[len(segs)-1].End {
			start = segs[len(segs)-1].End + 1
		}
		// Scan forward for a run of EndRun quiet frames.
		end := -1
		for j := p + 1; j < n; j++ {
			if j-start+1 >= maxFrames {
				end = j
				break
			}
			if !quiet(j) {
				continue
			}
			run := 1
			for k := j + 1; k < n && run < cfg.EndRun; k++ {
				if quiet(k) {
					run++
				} else {
					break
				}
			}
			if run >= cfg.EndRun {
				end = j
				break
			}
			// Skip past the partial quiet run.
			j += run - 1
		}
		if end < 0 {
			end = n - 1
		}
		if end-start+1 >= minFrames && start <= end {
			if segs == nil {
				// ew:allow hotprop: once per call — sized to the most
				// segments of at least minFrames the rest of the profile
				// can hold, so the appends below never grow it and a pass
				// allocates once however many strokes its window holds.
				segs = make([]Segment, 0, (n-start)/max(minFrames, 1)+1)
			}
			// ew:allow hotprop: within the capacity reserved above.
			segs = append(segs, Segment{Start: start, End: end})
		}
		i = end + 1
	}
	return segs, nil
}

// Slice returns the sub-profile covered by seg. It validates bounds.
func Slice(profile []float64, seg Segment) ([]float64, error) {
	if seg.Start < 0 || seg.End >= len(profile) || seg.Start > seg.End {
		return nil, fmt.Errorf("segment: segment [%d,%d] out of bounds for profile of %d frames",
			seg.Start, seg.End, len(profile))
	}
	return profile[seg.Start : seg.End+1], nil
}

// DetectEnergy is a baseline segmenter for the ablation study: it
// thresholds |profile| directly (an energy/speed gate rather than an
// acceleration gate), which cannot distinguish a slowly pacing bystander
// from a stroke.
func DetectEnergy(profile []float64, speedThresholdHz float64, minFrames int) []Segment {
	if minFrames <= 0 {
		minFrames = 4
	}
	var segs []Segment
	start := -1
	for i, v := range profile {
		active := math.Abs(v) > speedThresholdHz
		switch {
		case active && start < 0:
			start = i
		case !active && start >= 0:
			if i-start >= minFrames {
				segs = append(segs, Segment{Start: start, End: i - 1})
			}
			start = -1
		}
	}
	if start >= 0 && len(profile)-start >= minFrames {
		segs = append(segs, Segment{Start: start, End: len(profile) - 1})
	}
	return segs
}
