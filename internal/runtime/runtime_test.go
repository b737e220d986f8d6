package runtime

import (
	"math"
	"testing"
	"time"

	"repro/internal/pipeline"
)

func TestStageBreakdown(t *testing.T) {
	var b StageBreakdown
	if _, err := b.PerStroke(); err == nil {
		t.Error("empty breakdown accepted")
	}
	b.Add(pipeline.StageTimings{
		STFT:        100 * time.Millisecond,
		Enhancement: 60 * time.Millisecond,
		Profile:     20 * time.Millisecond,
		DTW:         10 * time.Millisecond,
	}, 2)
	per, err := b.PerStroke()
	if err != nil {
		t.Fatal(err)
	}
	if per.STFT != 50*time.Millisecond {
		t.Errorf("per-stroke STFT = %v, want 50ms", per.STFT)
	}
	share := b.SignalProcessingShare()
	want := 180.0 / 190.0
	if math.Abs(share-want) > 1e-9 {
		t.Errorf("signal share = %g, want %g", share, want)
	}
	// Zero-stroke add is clamped to 1.
	var b2 StageBreakdown
	b2.Add(pipeline.StageTimings{STFT: time.Millisecond}, 0)
	if b2.Strokes != 1 {
		t.Errorf("clamped strokes = %d", b2.Strokes)
	}
}

func TestSignalProcessingShareEmpty(t *testing.T) {
	var b StageBreakdown
	if !math.IsNaN(b.SignalProcessingShare()) {
		t.Error("empty share should be NaN")
	}
}

func TestEnergyModelMatchesPaperShape(t *testing.T) {
	m := DefaultEnergyModel()
	levels, err := m.BatteryLevels(30, 5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 7 {
		t.Fatalf("got %d samples, want 7", len(levels))
	}
	if levels[0] != 100 {
		t.Errorf("start level = %g", levels[0])
	}
	// Paper: ~87 % after 30 minutes of continuous use.
	final := levels[6]
	if final < 84 || final > 90 {
		t.Errorf("level after 30 min = %g, want ≈87", final)
	}
	// Strictly decreasing.
	for i := 1; i < len(levels); i++ {
		if levels[i] >= levels[i-1] {
			t.Errorf("battery increased at step %d", i)
		}
	}
}

func TestEnergyModelValidation(t *testing.T) {
	m := DefaultEnergyModel()
	if _, err := m.BatteryLevels(0, 5, 1); err == nil {
		t.Error("zero total accepted")
	}
	if _, err := m.BatteryLevels(30, 0, 1); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := m.BatteryLevels(30, 5, 2); err == nil {
		t.Error("duty cycle > 1 accepted")
	}
}

func TestEnergyModelClampsAtZero(t *testing.T) {
	m := DefaultEnergyModel()
	levels, err := m.BatteryLevels(600, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range levels {
		if l < 0 {
			t.Errorf("negative battery level %g", l)
		}
	}
}

func TestRuntimeHours(t *testing.T) {
	m := DefaultEnergyModel()
	h := m.RuntimeHours(1.0)
	// Consistent with Fig. 20's 0.43 %/min drain (the paper's prose
	// quotes 2.8 h, inconsistent with its own figure; see
	// DefaultEnergyModel).
	if h < 3.3 || h > 4.3 {
		t.Errorf("runtime = %g h, want ≈3.9", h)
	}
	// Lower duty cycle lasts longer.
	if m.RuntimeHours(0.2) <= h {
		t.Error("lighter duty should extend runtime")
	}
	if !math.IsInf(EnergyModel{}.RuntimeHours(0), 1) {
		t.Error("zero-drain model should run forever")
	}
}

func TestCPUModel(t *testing.T) {
	m := DefaultCPUModel()
	if _, err := m.Occupancy(time.Millisecond, 0); err == nil {
		t.Error("zero interval accepted")
	}
	// 50 ms host processing per stroke, stroke every 1.6 s, 6.5× slowdown
	// → 325/1600 + baseline.
	occ, err := m.Occupancy(50*time.Millisecond, 1600*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.07 + 0.325/1.6
	if math.Abs(occ-want) > 1e-9 {
		t.Errorf("occupancy = %g, want %g", occ, want)
	}
	// Saturation at 1.
	occ, err = m.Occupancy(10*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if occ != 1 {
		t.Errorf("occupancy = %g, want clamped 1", occ)
	}
}
