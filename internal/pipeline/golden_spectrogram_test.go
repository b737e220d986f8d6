package pipeline

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/stroke"
)

const goldenSpectrogramPath = "testdata/golden_spectrogram_band.txt"

// goldenProbes pins individual matrix cells alongside the whole-stream
// hash so a drift report names a frame and bin instead of just "hash
// mismatch". Spread across the matrix via fixed strides.
const goldenProbeCount = 16

// TestGoldenSpectrogramBand is the spectrogram regression gate for the
// band engine: the six-stroke golden trace's retained band must
// reproduce the committed dump byte-for-byte. The golden file records
// the matrix shape, the SHA-256 of the little-endian float64 column
// stream, and probe cells for diagnosis. Regenerate deliberately with
//
//	EW_UPDATE_GOLDEN=1 go test -run TestGoldenSpectrogramBand ./internal/pipeline
//
// and commit the diff next to the change that caused it. The byte-exact
// comparison is pinned on amd64 (other architectures contract fused
// multiply-adds and round differently); the recognition cross-check
// below runs everywhere.
func TestGoldenSpectrogramBand(t *testing.T) {
	golden := stroke.Sequence(stroke.AllStrokes())
	sig := synthesizeSequence(t, golden)

	cfg := DefaultConfig()
	st, err := dsp.NewSTFT(cfg.STFT)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := st.Compute(sig.Samples)
	if err != nil {
		t.Fatal(err)
	}

	// Cross-check against the serve golden transcript's semantics: the
	// same trace recognized end to end must still spell the six-stroke
	// alphabet under the band engine.
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := eng.Recognize(sig)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Sequence.Equal(golden) {
		t.Errorf("band engine recognized %v, want the golden alphabet %v", rec.Sequence, golden)
	}

	if os.Getenv("EW_UPDATE_GOLDEN") != "" {
		writeGoldenSpectrogram(t, spec)
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("byte-exact golden pinned on amd64; GOARCH=%s contracts floating point differently", runtime.GOARCH)
	}
	checkGoldenSpectrogram(t, spec)
}

// spectrogramDigest hashes the column stream as little-endian float64
// bytes — the byte-exact identity the golden pins.
func spectrogramDigest(spec *dsp.Spectrogram) string {
	h := sha256.New()
	var buf [8]byte
	for _, col := range spec.Data {
		for _, v := range col {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func probeCells(spec *dsp.Spectrogram) [][2]int {
	frames, bins := spec.Frames(), spec.Bins()
	cells := make([][2]int, 0, goldenProbeCount)
	for i := 0; i < goldenProbeCount; i++ {
		f := (i*frames + frames/2) / goldenProbeCount % frames
		b := (i*31 + i) % bins
		cells = append(cells, [2]int{f, b})
	}
	return cells
}

func writeGoldenSpectrogram(t *testing.T, spec *dsp.Spectrogram) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Golden band spectrogram of the six-stroke alphabet trace.\n")
	fmt.Fprintf(&sb, "# sha256 covers the columns as little-endian float64 bytes; probes\n")
	fmt.Fprintf(&sb, "# record single cells (frame bin bits) to localize any drift.\n")
	fmt.Fprintf(&sb, "frames %d\n", spec.Frames())
	fmt.Fprintf(&sb, "bins %d\n", spec.Bins())
	fmt.Fprintf(&sb, "binlow %d\n", spec.BinLow)
	fmt.Fprintf(&sb, "sha256 %s\n", spectrogramDigest(spec))
	for _, c := range probeCells(spec) {
		fmt.Fprintf(&sb, "probe %d %d %#016x\n", c[0], c[1], math.Float64bits(spec.Data[c[0]][c[1]]))
	}
	if err := os.MkdirAll(filepath.Dir(goldenSpectrogramPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenSpectrogramPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d frames × %d bins)", goldenSpectrogramPath, spec.Frames(), spec.Bins())
}

func checkGoldenSpectrogram(t *testing.T, spec *dsp.Spectrogram) {
	t.Helper()
	f, err := os.Open(goldenSpectrogramPath)
	if err != nil {
		t.Fatalf("%v (regenerate with EW_UPDATE_GOLDEN=1)", err)
	}
	defer f.Close()
	want := map[string]string{}
	type probe struct {
		frame, bin int
		bits       uint64
	}
	var probes []probe
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "probe" {
			if len(fields) != 4 {
				t.Fatalf("malformed probe line %q", line)
			}
			fr, err1 := strconv.Atoi(fields[1])
			b, err2 := strconv.Atoi(fields[2])
			bits, err3 := strconv.ParseUint(strings.TrimPrefix(fields[3], "0x"), 16, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatalf("malformed probe line %q", line)
			}
			probes = append(probes, probe{fr, b, bits})
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if g := strconv.Itoa(spec.Frames()); g != want["frames"] {
		t.Fatalf("frames = %s, golden %s", g, want["frames"])
	}
	if g := strconv.Itoa(spec.Bins()); g != want["bins"] {
		t.Fatalf("bins = %s, golden %s", g, want["bins"])
	}
	if g := strconv.Itoa(spec.BinLow); g != want["binlow"] {
		t.Fatalf("binlow = %s, golden %s", g, want["binlow"])
	}
	for _, p := range probes {
		if p.frame >= spec.Frames() || p.bin >= spec.Bins() {
			t.Fatalf("probe (%d,%d) outside %dx%d", p.frame, p.bin, spec.Frames(), spec.Bins())
		}
		if got := math.Float64bits(spec.Data[p.frame][p.bin]); got != p.bits {
			t.Errorf("frame %d bin %d = %#016x (%.17g), golden %#016x (%.17g)",
				p.frame, p.bin, got, spec.Data[p.frame][p.bin], p.bits, math.Float64frombits(p.bits))
		}
	}
	if got := spectrogramDigest(spec); got != want["sha256"] {
		t.Errorf("spectrogram bytes drifted: sha256 %s, golden %s (every probe above matched: drift is in unprobed cells; regenerate only for a deliberate numeric change)", got, want["sha256"])
	}
}
