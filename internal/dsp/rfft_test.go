package dsp

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refHalfSpectrum computes the first n/2 bins of the DFT of frame through
// the full complex FFT — the reference the real-input plan must match.
func refHalfSpectrum(t testing.TB, frame []float64) []complex128 {
	t.Helper()
	plan, err := NewFFTPlan(len(frame))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]complex128, len(frame))
	for i, v := range frame {
		buf[i] = complex(v, 0)
	}
	if err := plan.Forward(buf); err != nil {
		t.Fatal(err)
	}
	return buf[:len(frame)/2]
}

// diffTol is the differential-harness bound: per-bin agreement to 1e-9
// relative (plus 1e-9 absolute floor for near-zero bins).
const diffTol = 1e-9

// withinTol reports |a-b| <= diffTol·(1+max(|a|,|b|)).
func withinTol(a, b float64) bool {
	m := math.Abs(a)
	if mb := math.Abs(b); mb > m {
		m = mb
	}
	return math.Abs(a-b) <= diffTol*(1+m)
}

// halfSpectrum runs frame through the plan (unwindowed) and unpacks
// every bin X[0 .. n/2) of the packed result.
func halfSpectrum(p *RFFTPlan, frame []float64) []complex128 {
	p.pack(frame, nil)
	p.forward()
	out := make([]complex128, p.m)
	for k := range out {
		out[k] = p.unpackBin(k)
	}
	return out
}

func TestRFFTMatchesFullFFT(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64, 256, 1024, 8192} {
		rng := rand.New(rand.NewSource(int64(n)))
		frame := make([]float64, n)
		for i := range frame {
			frame[i] = 2*rng.Float64() - 1
		}
		plan, err := NewRFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		got := halfSpectrum(plan, frame)
		want := refHalfSpectrum(t, frame)
		for k := range want {
			if !withinTol(real(got[k]), real(want[k])) || !withinTol(imag(got[k]), imag(want[k])) {
				t.Fatalf("n=%d bin %d: rfft %v, reference %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestRFFTKnownSpectra(t *testing.T) {
	const n = 64
	plan, err := NewRFFTPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	// Constant input: all energy in DC.
	frame := make([]float64, n)
	for i := range frame {
		frame[i] = 1
	}
	dst := halfSpectrum(plan, frame)
	if !withinTol(real(dst[0]), float64(n)) || !withinTol(imag(dst[0]), 0) {
		t.Errorf("DC bin = %v, want %d", dst[0], n)
	}
	for k := 1; k < n/2; k++ {
		if !withinTol(real(dst[k]), 0) || !withinTol(imag(dst[k]), 0) {
			t.Errorf("bin %d = %v, want 0", k, dst[k])
		}
	}

	// Pure cosine at bin 5: X[5] = n/2, everything else ~0.
	for i := range frame {
		frame[i] = math.Cos(2 * math.Pi * 5 * float64(i) / n)
	}
	dst = halfSpectrum(plan, frame)
	if !withinTol(real(dst[5]), float64(n)/2) || !withinTol(imag(dst[5]), 0) {
		t.Errorf("tone bin = %v, want %g", dst[5], float64(n)/2)
	}
}

func TestRFFTValidation(t *testing.T) {
	if _, err := NewRFFTPlan(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewRFFTPlan(1); err == nil {
		t.Error("size 1 accepted (no half transform exists)")
	}
	if _, err := NewRFFTPlan(48); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	plan, err := NewRFFTPlan(16)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Size() != 16 {
		t.Errorf("Size() = %d, want 16", plan.Size())
	}
	if err := plan.Magnitudes(make([]float64, 8), nil, 0, 8, make([]float64, 8)); err == nil {
		t.Error("short frame accepted")
	}
	if err := plan.Magnitudes(make([]float64, 32), nil, 0, 8, make([]float64, 8)); err == nil {
		t.Error("long frame accepted")
	}
}

// TestRFFTDigitReversalRoundTrip pins the digit-reversal table: it must
// be a permutation of [0, n/2).
func TestRFFTDigitReversalRoundTrip(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 64, 128, 8192} {
		plan, err := NewRFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n/2)
		for _, pos := range plan.t.rev {
			if pos < 0 || pos >= n/2 || seen[pos] {
				t.Fatalf("n=%d: rev is not a permutation: %v", n, plan.t.rev)
			}
			seen[pos] = true
		}
	}
}

// tierFrames synthesizes k deterministic, mutually distinct frames of
// length n — each gets its own tone mix and phase — plus one uniform
// random frame.
func tierFrames(n, k int) [][]float64 {
	frames := make([][]float64, k, k+1)
	for l := range frames {
		f := make([]float64, n)
		base := 18000 + 137*float64(l)
		phase := 0.31 * float64(l)
		for i := range f {
			t := float64(i) / 44100
			f[i] = math.Sin(2*math.Pi*base*t+phase) +
				0.4*math.Sin(2*math.Pi*(base-220)*t) +
				0.03*math.Sin(2*math.Pi*(350+11*float64(l))*t)
		}
		frames[l] = f
	}
	return append(frames, randomSignal(int64(n), n))
}

// scalarBandReference computes band magnitudes the plain way through
// p's scratch and tables: scalar pack, every stage over the whole plane
// with difStageScalar, the trailing radix-2, then the unpack — no
// tiling, no fused tail, no vector kernel.
func scalarBandReference(p *RFFTPlan, frame, win []float64, low, high int) []float64 {
	z := p.z
	for i := range z {
		if win == nil {
			z[i] = complex(frame[2*i], frame[2*i+1])
		} else {
			z[i] = complex(frame[2*i]*win[2*i], frame[2*i+1]*win[2*i+1])
		}
	}
	for _, st := range p.t.stages {
		difStageScalar(z, st)
	}
	if p.t.r2 {
		for j := 0; j+1 < len(z); j += 2 {
			z[j], z[j+1] = z[j]+z[j+1], z[j]-z[j+1]
		}
	}
	dst := make([]float64, high-low)
	for i := range dst {
		x := p.unpackBin(low + i)
		dst[i] = math.Sqrt(real(x)*real(x) + imag(x)*imag(x))
	}
	return dst
}

// TestRFFTVectorKernelMatchesScalar pins every kernel tier the host can
// run — AVX-512 quad with the fused span-16/4 tail, AVX pair, scalar —
// against the untiled scalar reference, bit for bit: all kernels
// perform the same flops in the same order, so band magnitudes must
// agree exactly. It covers every transform shape class (fused tail,
// trailing radix-2, single stage, the degenerate tiny sizes), every
// window kind plus no window, and full, off-centre and one-bin bands.
func TestRFFTVectorKernelMatchesScalar(t *testing.T) {
	tiers := []struct {
		name        string
		vec512, vec bool
		ok          bool
	}{
		{"avx512", true, true, hasAVX512},
		{"avx", false, true, hasAVX},
		{"scalar", false, false, true},
	}
	windows := []WindowKind{0, WindowHanning, WindowHamming, WindowRectangular, WindowBlackman}
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 512, 2048, 4096, 8192} {
		m := n / 2
		bands := [][2]int{{0, m}, {m - 1, m}}
		if m > 8 {
			bands = append(bands, [2]int{m / 4, m - 3}, [2]int{m/3 + 1, m/3 + 2})
		}
		plan, err := NewRFFTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		frames := tierFrames(n, 3)
		for _, wk := range windows {
			var win []float64
			if wk != 0 {
				w, err := NewWindow(wk, n)
				if err != nil {
					t.Fatal(err)
				}
				win = w.coeffs
			}
			for _, band := range bands {
				low, high := band[0], band[1]
				got := make([]float64, high-low)
				for fi, frame := range frames {
					want := scalarBandReference(plan, frame, win, low, high)
					for _, tier := range tiers {
						if !tier.ok {
							continue
						}
						plan.vec512, plan.vec = tier.vec512, tier.vec
						if err := plan.Magnitudes(frame, win, low, high, got); err != nil {
							t.Fatalf("n=%d tier %s: %v", n, tier.name, err)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("n=%d window=%v band=[%d,%d) frame %d tier %s bin %d: %.17g, scalar %.17g (must be bit-identical)",
									n, wk, low, high, fi, tier.name, low+i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestRFFTTablesShared pins the table sharing: plans of one size read
// one table set and build none of their own, STFTs of one size and
// window share the window, and each keeps its own scratch plane.
func TestRFFTTablesShared(t *testing.T) {
	a, err := NewSTFT(DefaultSTFTConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSTFT(DefaultSTFTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.plan.t != b.plan.t {
		t.Error("two STFTs of one size built separate table sets")
	}
	if a.window != b.window {
		t.Error("two STFTs of one size and window built separate windows")
	}
	if &a.plan.z[0] == &b.plan.z[0] {
		t.Error("two STFTs share one scratch plane")
	}
	other, err := NewRFFTPlan(a.Config().FFTSize / 2)
	if err != nil {
		t.Fatal(err)
	}
	if other.t == a.plan.t {
		t.Error("plans of different sizes share a table set")
	}
	// The plan struct and its scratch plane are the only allocations.
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewRFFTPlan(a.Config().FFTSize); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("NewRFFTPlan allocated %v times, want 2 (plan and scratch plane; tables are shared)", allocs)
	}
}

// TestSTFTConcurrentSharedTables builds and runs STFTs of one size from
// several goroutines at once — the first build of that size's tables
// races with the rest — and checks every spectrogram against the
// full-FFT reference and bit for bit against each other. Run under
// -race it also proves the shared tables are only read.
func TestSTFTConcurrentSharedTables(t *testing.T) {
	// A size no other test in the package uses, so this test performs
	// the first build of its tables.
	cfg := STFTConfig{SampleRate: 44100, FFTSize: 16384, HopSize: 4096, LowBin: 7000, HighBin: 7400}
	sig := randomSignal(9, cfg.FFTSize+3*cfg.HopSize)
	const workers = 4
	got := make([]*Spectrogram, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			st, err := NewSTFT(cfg)
			if err != nil {
				errs[g] = err
				return
			}
			got[g], errs[g] = st.Compute(sig)
		}(g)
	}
	close(start)
	wg.Wait()
	// The reference builds an STFT of the same size too, so it runs only
	// after the goroutines have raced the first build.
	want := referenceColumns(t, cfg, sig)
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		assertSpectrogramsClose(t, got[g], want, "goroutine %d", g)
		for f := range got[g].Data {
			for b, v := range got[g].Data[f] {
				if v != got[0].Data[f][b] {
					t.Fatalf("goroutine %d frame %d bin %d: %.17g, goroutine 0 %.17g", g, f, b, v, got[0].Data[f][b])
				}
			}
		}
	}
}
