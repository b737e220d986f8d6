package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	ewruntime "repro/internal/runtime"
	"repro/internal/testutil/race"
)

// tiny returns the smallest useful protocol for smoke tests.
func tiny() Config { return Config{Reps: 1, Participants: 1, Seed: 1} }

func TestConfigValidate(t *testing.T) {
	if err := Full().Validate(); err != nil {
		t.Error(err)
	}
	if err := Quick().Validate(); err != nil {
		t.Error(err)
	}
	if err := (Config{Reps: 0, Participants: 1}).Validate(); err == nil {
		t.Error("zero reps accepted")
	}
	if err := (Config{Reps: 1, Participants: 7}).Validate(); err == nil {
		t.Error("7 participants accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:         "Fig. X",
		Title:      "demo",
		PaperClaim: "something",
		Header:     []string{"a", "b"},
		Rows:       [][]string{{"1", "2"}, {"333", "4"}},
		Notes:      []string{"note"},
	}
	out := tab.Render()
	for _, want := range []string{"Fig. X", "demo", "paper:", "333", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryCoversAllPaperArtifacts(t *testing.T) {
	names := map[string]bool{}
	for _, e := range All() {
		if names[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		names[e.Name] = true
	}
	// Every evaluation figure and table of the paper must be present.
	for _, want := range []string{
		"fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "table1", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21",
	} {
		if !names[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
	// Plus the six design-decision ablations.
	ablations := 0
	for n := range names {
		if strings.HasPrefix(n, "ablation-") {
			ablations++
		}
	}
	if ablations < 6 {
		t.Errorf("only %d ablations registered, want >= 6", ablations)
	}
	if Find("fig12") == nil {
		t.Error("Find failed on fig12")
	}
	if Find("nonexistent") != nil {
		t.Error("Find invented an experiment")
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestFig04LearnabilityCurve(t *testing.T) {
	tab, err := Fig04Learnability(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 15 {
		t.Fatalf("got %d rows, want 15 minutes", len(tab.Rows))
	}
	first := parsePct(t, tab.Rows[0][1])
	last := parsePct(t, tab.Rows[14][1])
	if last <= first {
		t.Errorf("no learning: %g%% → %g%%", first, last)
	}
	if last < 93 {
		t.Errorf("final accuracy %g%%, want ≳95 (paper: 98)", last)
	}
}

func TestFig05SpeedNearPaper(t *testing.T) {
	tab, err := Fig05LearnSpeed(Quick())
	if err != nil {
		t.Fatal(err)
	}
	avgRow := tab.Rows[len(tab.Rows)-1]
	wpm, err := strconv.ParseFloat(avgRow[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if wpm < 8 || wpm > 14 {
		t.Errorf("learnability speed %g WPM, paper ≈11", wpm)
	}
}

func TestFig06Accuracy(t *testing.T) {
	tab, err := Fig06LearnAccuracy(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if sa := parsePct(t, row[1]); sa < 95 {
			t.Errorf("%s stroke accuracy %g%%, want high after practice", row[0], sa)
		}
	}
}

func TestTable1Words(t *testing.T) {
	tab, err := Table1Words(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("Table I has %d words, want 10", len(tab.Rows))
	}
}

func TestFig08Stages(t *testing.T) {
	if testing.Short() {
		t.Skip("audio-heavy")
	}
	tab, err := Fig08PipelineStages(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("got %d stages", len(tab.Rows))
	}
	// Binarization must keep only a small fraction of pixels.
	if frac := parsePct(t, tab.Rows[2][3]); frac > 25 {
		t.Errorf("binary stage keeps %g%% of pixels — not concentrated", frac)
	}
}

func TestFig09ProfilesMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("audio-heavy")
	}
	tab, err := Fig09Profiles(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("got %d strokes", len(tab.Rows))
	}
}

func TestFig10SegmentationQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("audio-heavy")
	}
	tab, err := Fig10Segmentation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var recall float64
	for _, row := range tab.Rows {
		if row[0] == "recall" {
			recall = parsePct(t, row[1])
		}
	}
	if recall < 80 {
		t.Errorf("segmentation recall %g%%, want high", recall)
	}
}

func TestFig12EnvironmentOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("audio-heavy")
	}
	tab, err := Fig12Environments(Config{Reps: 2, Participants: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d environments", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		avg := parsePct(t, row[7])
		if avg < 75 {
			t.Errorf("%s average %g%% unexpectedly low", row[0], avg)
		}
	}
}

func TestFig14TopKMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("audio-heavy")
	}
	tab, err := Fig14TopK(tiny())
	if err != nil {
		t.Fatal(err)
	}
	avg := tab.Rows[len(tab.Rows)-1]
	prev := 0.0
	for k := 1; k <= 5; k++ {
		a := parsePct(t, avg[k])
		if a < prev {
			t.Errorf("top-%d (%g) below top-%d (%g)", k, a, k-1, prev)
		}
		prev = a
	}
	if prev < 60 {
		t.Errorf("top-5 average %g%%, want usable", prev)
	}
}

func TestFig16SpeedComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("audio-heavy")
	}
	tab, err := Fig16EntrySpeed(tiny())
	if err != nil {
		t.Fatal(err)
	}
	avg := tab.Rows[len(tab.Rows)-1]
	ew, err := strconv.ParseFloat(avg[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := strconv.ParseFloat(avg[2], 64)
	if err != nil {
		t.Fatal(err)
	}
	// The headline claim: EchoWrite beats the smartwatch keyboard.
	if ew <= kb {
		t.Errorf("EchoWrite %g WPM not faster than keyboard %g WPM", ew, kb)
	}
	if ew < 5 || ew > 12 {
		t.Errorf("novice EchoWrite speed %g WPM, paper ≈7.5", ew)
	}
}

func TestFig19TimingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("audio-heavy")
	}
	tab, err := Fig19StageTime(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var share float64
	for _, row := range tab.Rows {
		if row[0] == "signal-processing share" {
			share = parsePct(t, row[1])
		}
	}
	// Paper: signal processing dominates (>90 %).
	if share < 90 {
		t.Errorf("signal-processing share %g%%, paper >90%%", share)
	}
}

func TestFig20EnergyShape(t *testing.T) {
	tab, err := Fig20Energy(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Final 30-minute level ≈ 87 %.
	var final float64
	for _, row := range tab.Rows {
		if row[0] == "30" {
			final, _ = strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		}
	}
	if final < 85 || final > 89 {
		t.Errorf("battery after 30 min = %g%%, paper 87%%", final)
	}
}

func TestFig21CPUShape(t *testing.T) {
	if testing.Short() {
		t.Skip("audio-heavy")
	}
	tab, err := Fig21CPU(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	var paces, occs []float64
	for _, row := range tab.Rows {
		if row[0] == "mean" {
			mean = parsePct(t, row[1])
			continue
		}
		pace, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			t.Fatalf("cannot parse pace %q: %v", row[0], err)
		}
		paces = append(paces, pace)
		occs = append(occs, parsePct(t, row[1]))
	}
	// Paper: mean 15.2 % within 9.5–25.6 %. The occupancy model feeds on
	// real measured per-stroke wall time, so the race detector's ~5-10×
	// slowdown pushes the mean far above the band; under -race only check
	// that the model produced a sane percentage.
	if race.Enabled {
		if mean <= 0 || mean > 100 {
			t.Errorf("CPU mean %g%% not a valid occupancy under race detector", mean)
		}
		return
	}
	if mean < 8 || mean > 26 {
		t.Errorf("CPU mean %g%% outside the paper's plausible band", mean)
	}
	// Beyond the level, the shape: occupancy is the constant capture
	// share plus a term linear in writing pace.
	base := 100 * ewruntime.DefaultCPUModel().BaselineShare
	if len(occs) < 3 || occs[0] < base-0.05 {
		t.Fatalf("occupancies %v: want at least three paces, all above the %g%% capture share", occs, base)
	}
	// Rows print to 0.1 %, so allow each point that much off the line
	// through the end points.
	n := len(occs) - 1
	slope := (occs[n] - occs[0]) / (paces[n] - paces[0])
	for i := range occs {
		if i > 0 && occs[i] < occs[i-1] {
			t.Errorf("occupancy falls with pace: %v at paces %v", occs, paces)
		}
		if line := occs[0] + slope*(paces[i]-paces[0]); math.Abs(occs[i]-line) > 0.1 {
			t.Errorf("occupancy %g%% at pace %g is %.2f off linear in pace (%v at %v)", occs[i], paces[i], occs[i]-line, occs, paces)
		}
	}
}

func TestEstimateConfusionStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("audio-heavy")
	}
	cm, err := EstimateConfusion(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if cm.OverallAccuracy() < 0.7 {
		t.Errorf("estimated confusion accuracy %g too low", cm.OverallAccuracy())
	}
}
