package imgproc

// Row kernels: the per-row building blocks of Median3x3, GaussianBlur and
// Normalize01+Binarize. A caller that caches results per row (the
// streaming enhancer) recomputes just the rows whose inputs changed and
// gets, row for row, the bits the whole-matrix functions produce.

// MedianRow writes the 3×3 median filter of row cur into dst. prev and
// next are the rows above and below, nil at the image border; border
// pixels take the median over the in-image part of the neighborhood
// (the upper median for an even tap count), exactly as Median3x3 does.
// All rows have cur's length; dst must not alias any of them.
//
// ew:hotpath — the streaming enhancer runs this once per recomputed
// spectrogram column.
func MedianRow(dst, prev, cur, next []float64) {
	n := len(cur)
	dst = dst[:n]
	if prev == nil || next == nil || n < 3 {
		for c := range dst {
			dst[c] = medianBorder(prev, cur, next, c)
		}
		return
	}
	prev, next = prev[:n], next[:n]
	dst[0] = medianBorder(prev, cur, next, 0)
	for c := 1; c < n-1; c++ {
		dst[c] = median9(prev[c-1], prev[c], prev[c+1], cur[c-1], cur[c], cur[c+1], next[c-1], next[c], next[c+1])
	}
	dst[n-1] = medianBorder(prev, cur, next, n-1)
}

// median9 returns the median of nine values with Paeth's 19-compare
// selection network: the first three layers sort each triple, the rest
// keep only the comparisons the middle element depends on.
func median9(p0, p1, p2, p3, p4, p5, p6, p7, p8 float64) float64 {
	p1, p2 = sort2(p1, p2)
	p4, p5 = sort2(p4, p5)
	p7, p8 = sort2(p7, p8)
	p0, p1 = sort2(p0, p1)
	p3, p4 = sort2(p3, p4)
	p6, p7 = sort2(p6, p7)
	p1, p2 = sort2(p1, p2)
	p4, p5 = sort2(p4, p5)
	p7, p8 = sort2(p7, p8)
	p0, p3 = sort2(p0, p3)
	p5, p8 = sort2(p5, p8)
	p4, p7 = sort2(p4, p7)
	p3, p6 = sort2(p3, p6)
	p1, p4 = sort2(p1, p4)
	p2, p5 = sort2(p2, p5)
	p4, p7 = sort2(p4, p7)
	p4, p2 = sort2(p4, p2)
	p6, p4 = sort2(p6, p4)
	p4, _ = sort2(p4, p2)
	return p4
}

// sort2 orders a pair without branching. Inputs are assumed NaN-free
// (spectrogram magnitudes): with a NaN the network's pick can differ
// from a sort's.
func sort2(a, b float64) (float64, float64) {
	return min(a, b), max(a, b)
}

// medianBorder is the general median at column c: it gathers the
// in-image taps of the 3×3 neighborhood and insertion-sorts them.
func medianBorder(prev, cur, next []float64, c int) float64 {
	var buf [9]float64
	k := 0
	for _, row := range [3][]float64{prev, cur, next} {
		if row == nil {
			continue
		}
		for cc := c - 1; cc <= c+1; cc++ {
			if cc < 0 || cc >= len(row) {
				continue
			}
			v := row[cc]
			j := k
			for ; j > 0 && buf[j-1] > v; j-- {
				buf[j] = buf[j-1]
			}
			buf[j] = v
			k++
		}
	}
	return buf[k/2]
}

// GaussianRow writes the horizontal pass of a separable blur with the odd,
// normalized kernel k (from GaussianKernel) into dst, renormalizing over
// the in-row taps at the borders. dst must not alias src.
//
// ew:hotpath — see MedianRow.
func GaussianRow(dst, src, k []float64) {
	n, half := len(src), len(k)/2
	dst = dst[:n]
	full := 0.0
	for _, w := range k {
		full += w
	}
	for c := range dst {
		if c < half || c >= n-half {
			sum, wsum := 0.0, 0.0
			for i := -half; i <= half; i++ {
				cc := c + i
				if cc < 0 || cc >= n {
					continue
				}
				w := k[i+half]
				sum += w * src[cc]
				wsum += w
			}
			dst[c] = sum / wsum
			continue
		}
		sum := 0.0
		win := src[c-half : c+half+1]
		for i, w := range k {
			sum += w * win[i]
		}
		dst[c] = sum / full
	}
}

// GaussianColumn writes the vertical pass of the blur into dst: each
// dst[c] is Σ k[i]·taps[i][c] over the non-nil taps, divided by the sum
// of their weights. taps[i] is the horizontally blurred row at offset
// i−len(k)/2 from the output row, nil where that row lies outside the
// image. dst must not alias a tap.
//
// ew:hotpath — see MedianRow.
func GaussianColumn(dst []float64, taps [][]float64, k []float64) {
	clear(dst)
	wsum := 0.0
	for i, t := range taps {
		if t == nil {
			continue
		}
		w := k[i]
		t = t[:len(dst)]
		for c := range dst {
			dst[c] += w * t[c]
		}
		wsum += w
	}
	for c := range dst {
		dst[c] /= wsum
	}
}

// Extremes returns the minimum and maximum of a non-empty row.
func Extremes(row []float64) (lo, hi float64) {
	lo, hi = row[0], row[0]
	for _, v := range row[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// BinarizeNormalizedRow writes into dst what Normalize01 followed by
// Binarize(t) gives for one row of a matrix whose global minimum is lo
// and whose max−min span is span: 1 where (v−lo)/span >= t, and 0
// everywhere when span is zero.
//
// ew:hotpath — see MedianRow.
func BinarizeNormalizedRow(dst []uint8, src []float64, lo, span, t float64) {
	dst = dst[:len(src)]
	for c, v := range src {
		n := 0.0
		if span != 0 {
			n = (v - lo) / span
		}
		dst[c] = 0
		if n >= t {
			dst[c] = 1
		}
	}
}
