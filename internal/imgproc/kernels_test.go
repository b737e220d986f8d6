package imgproc

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// The references below are the straightforward whole-matrix algorithms
// the kernels replaced; the kernels must reproduce them bit for bit.

// refMedian3x3 sorts each in-image neighborhood and takes the upper
// median.
func refMedian3x3(m [][]float64) [][]float64 {
	rows, cols := len(m), len(m[0])
	out := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			var buf []float64
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					rr, cc := r+dr, c+dc
					if rr >= 0 && rr < rows && cc >= 0 && cc < cols {
						buf = append(buf, m[rr][cc])
					}
				}
			}
			sort.Float64s(buf)
			out[r][c] = buf[len(buf)/2]
		}
	}
	return out
}

// refGaussianBlur is the per-pixel two-pass blur with border
// renormalization.
func refGaussianBlur(m [][]float64, k []float64) [][]float64 {
	rows, cols, half := len(m), len(m[0]), len(k)/2
	tmp := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			sum, wsum := 0.0, 0.0
			for i := -half; i <= half; i++ {
				if cc := c + i; cc >= 0 && cc < cols {
					sum += k[i+half] * m[r][cc]
					wsum += k[i+half]
				}
			}
			tmp[r][c] = sum / wsum
		}
	}
	out := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			sum, wsum := 0.0, 0.0
			for i := -half; i <= half; i++ {
				if rr := r + i; rr >= 0 && rr < rows {
					sum += k[i+half] * tmp[rr][c]
					wsum += k[i+half]
				}
			}
			out[r][c] = sum / wsum
		}
	}
	return out
}

// refFillHoles floods background from every border pixel.
func refFillHoles(bin [][]uint8) [][]uint8 {
	rows, cols := len(bin), len(bin[0])
	reach := NewMatrixOf[bool](rows, cols)
	var flood func(r, c int)
	flood = func(r, c int) {
		if r < 0 || r >= rows || c < 0 || c >= cols || reach[r][c] || bin[r][c] != 0 {
			return
		}
		reach[r][c] = true
		flood(r-1, c)
		flood(r+1, c)
		flood(r, c-1)
		flood(r, c+1)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r == 0 || c == 0 || r == rows-1 || c == cols-1 {
				flood(r, c)
			}
		}
	}
	out := NewMatrixOf[uint8](rows, cols)
	for r := range out {
		for c := range out[r] {
			if bin[r][c] == 1 || !reach[r][c] {
				out[r][c] = 1
			}
		}
	}
	return out
}

// refRemoveSmall keeps foreground pixels whose ConnectedComponents
// component is large enough.
func refRemoveSmall(bin [][]uint8, minSize int) [][]uint8 {
	labels, comps, err := ConnectedComponents(bin)
	if err != nil {
		panic(err)
	}
	out := NewMatrixOf[uint8](len(bin), len(bin[0]))
	for r := range bin {
		for c := range bin[r] {
			if bin[r][c] == 1 && comps[labels[r][c]-1].Size >= minSize {
				out[r][c] = 1
			}
		}
	}
	return out
}

// randomMatrix draws values from a small alphabet so neighborhoods
// carry ties, with about a third exact zeros.
func randomMatrix(rng *rand.Rand, rows, cols int) [][]float64 {
	m := NewMatrix(rows, cols)
	for r := range m {
		for c := range m[r] {
			if rng.IntN(3) > 0 {
				m[r][c] = float64(rng.IntN(5)) * 0.25
			}
		}
	}
	return m
}

func equalF(a, b [][]float64) bool {
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				return false
			}
		}
	}
	return true
}

func equalU8(a, b [][]uint8) bool {
	for r := range a {
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				return false
			}
		}
	}
	return true
}

func TestMedianNetworkMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {2, 5}, {3, 3}, {9, 13}, {40, 176}}
	for _, sh := range shapes {
		for trial := 0; trial < 20; trial++ {
			m := randomMatrix(rng, sh[0], sh[1])
			if trial%2 == 1 { // continuous values: no ties
				for r := range m {
					for c := range m[r] {
						m[r][c] = rng.Float64()
					}
				}
			}
			got, err := Median3x3(m)
			if err != nil {
				t.Fatal(err)
			}
			if !equalF(got, refMedian3x3(m)) {
				t.Fatalf("%dx%d trial %d: network median differs from sort reference", sh[0], sh[1], trial)
			}
		}
	}
}

func TestGaussianRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, size := range []int{1, 3, 5, 7} {
		k, err := GaussianKernel(size, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {4, 6}, {30, 176}} {
			m := randomMatrix(rng, sh[0], sh[1])
			got, err := GaussianBlur(m, size, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !equalF(got, refGaussianBlur(m, k)) {
				t.Fatalf("size %d, %dx%d: row kernels differ from the per-pixel blur", size, sh[0], sh[1])
			}
		}
	}
}

func TestBinarizeNormalizedRowMatchesNormalize01(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 20; trial++ {
		m := randomMatrix(rng, 6, 11)
		if trial == 0 {
			m = NewMatrix(6, 11) // constant: span 0
		}
		lo, hi := Extremes(m[0])
		for _, row := range m[1:] {
			l, h := Extremes(row)
			lo, hi = min(lo, l), max(hi, h)
		}
		got := NewMatrixOf[uint8](6, 11)
		for r, row := range m {
			BinarizeNormalizedRow(got[r], row, lo, hi-lo, 0.3)
		}
		want := Binarize(Normalize01(Clone(m)), 0.3)
		if !equalU8(got, want) {
			t.Fatalf("trial %d: row binarization differs from Normalize01+Binarize", trial)
		}
	}
}

func TestFlatKernelsMatchReferenceProperty(t *testing.T) {
	var s Scratch // shared across cases: reuse must not leak state
	f := func(seed uint64, rows8, cols8, minSize8, density8 uint8) bool {
		rows, cols := 1+int(rows8%24), 1+int(cols8%40)
		minSize := int(minSize8 % 8)
		// Sparse and dense images give runs long enough for the
		// eight-pixel skip; mid densities give many short ones.
		density := []float64{0.03, 0.45, 0.97}[density8%3]
		rng := rand.New(rand.NewPCG(seed, 9))
		in := NewMatrixOf[uint8](rows, cols)
		for r := range in {
			for c := range in[r] {
				if rng.Float64() < density {
					in[r][c] = 1
				}
			}
		}
		flat := make([]uint8, rows*cols)
		flatten(flat, in)

		filled := make([]uint8, rows*cols)
		s.FillHoles(filled, flat, rows, cols)
		wantFill := refFillHoles(in)
		kept := make([]uint8, rows*cols)
		s.RemoveSmallComponents(kept, flat, rows, cols, minSize)
		wantKept := refRemoveSmall(in, minSize)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if filled[r*cols+c] != wantFill[r][c] || kept[r*cols+c] != wantKept[r][c] {
					return false
				}
			}
		}
		// In place: dst aliasing src gives the same image.
		s.FillHoles(flat, flat, rows, cols)
		for i := range flat {
			if flat[i] != filled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestScratchKernelsDoNotAllocate(t *testing.T) {
	const rows, cols = 64, 48
	src := make([]uint8, rows*cols)
	flatten(src, grid(rows, cols))
	dst := make([]uint8, rows*cols)
	var s Scratch
	if got := testing.AllocsPerRun(20, func() { s.FillHoles(dst, src, rows, cols) }); got != 0 {
		t.Errorf("Scratch.FillHoles allocates %.0f times per call, want 0", got)
	}
	if got := testing.AllocsPerRun(20, func() { s.RemoveSmallComponents(dst, src, rows, cols, 6) }); got != 0 {
		t.Errorf("Scratch.RemoveSmallComponents allocates %.0f times per call, want 0", got)
	}
	prev, cur, next, out := make([]float64, cols), make([]float64, cols), make([]float64, cols), make([]float64, cols)
	k, err := GaussianKernel(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	taps := [][]float64{prev, cur, next, nil, nil}
	if got := testing.AllocsPerRun(20, func() {
		MedianRow(out, prev, cur, next)
		MedianRow(out, nil, cur, next)
		GaussianRow(out, cur, k)
		GaussianColumn(out, taps, k)
	}); got != 0 {
		t.Errorf("row kernels allocate %.0f times per call, want 0", got)
	}
}

var sinkMedian [][]float64

func BenchmarkMedian3x3(b *testing.B) {
	m := randomMatrix(rand.New(rand.NewPCG(7, 8)), 256, 176)
	for _, v := range []struct {
		name string
		f    func([][]float64) [][]float64
	}{
		{"network", func(m [][]float64) [][]float64 { out, _ := Median3x3(m); return out }},
		{"sort", refMedian3x3},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkMedian = v.f(m)
			}
		})
	}
}
