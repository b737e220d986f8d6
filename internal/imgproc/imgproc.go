// Package imgproc implements the two-dimensional image-processing
// operations the EchoWrite pipeline applies to spectrograms: median
// filtering, Gaussian smoothing, normalization, binarization, flood-fill
// hole filling, and connected-component labeling (§III-A of the paper).
//
// All functions operate on row-major matrices represented as [][]float64
// (or [][]uint8 for binary images) where m[r][c] addresses row r, column c.
// In pipeline usage a row is one STFT frame and a column is one frequency
// bin, but nothing here depends on that interpretation.
package imgproc

import (
	"fmt"
	"math"
)

// Dims returns the (rows, cols) of a rectangular matrix, or an error if the
// matrix is ragged or empty.
func Dims(m [][]float64) (rows, cols int, err error) {
	rows = len(m)
	if rows == 0 {
		return 0, 0, fmt.Errorf("imgproc: empty matrix")
	}
	cols = len(m[0])
	for r, row := range m {
		if len(row) != cols {
			return 0, 0, fmt.Errorf("imgproc: ragged matrix: row %d has %d cols, want %d", r, len(row), cols)
		}
	}
	if cols == 0 {
		return 0, 0, fmt.Errorf("imgproc: matrix has zero columns")
	}
	return rows, cols, nil
}

// NewMatrix allocates a rows×cols zero matrix backed by one contiguous
// allocation.
func NewMatrix(rows, cols int) [][]float64 {
	return NewMatrixOf[float64](rows, cols)
}

// NewMatrixOf allocates a rows×cols zero matrix of any element type,
// backed by one contiguous allocation: two allocations total instead
// of rows+1, which keeps the per-flush enhancement chain off the
// hot-path allocation budget.
func NewMatrixOf[T any](rows, cols int) [][]T {
	_, m := newFlat[T](rows, cols)
	return m
}

// newFlat is NewMatrixOf that also returns the row-major backing slice,
// for the flat kernels.
func newFlat[T any](rows, cols int) ([]T, [][]T) {
	flat := make([]T, rows*cols)
	m := make([][]T, rows)
	for r, backing := 0, flat; r < rows; r++ {
		m[r], backing = backing[:cols:cols], backing[cols:]
	}
	return flat, m
}

// Clone deep-copies a matrix.
func Clone(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for r, row := range m {
		out[r] = append([]float64(nil), row...)
	}
	return out
}

// Median3x3 applies a 3×3 median filter (the paper's random-noise removal
// step) and returns a new matrix. Border pixels use the intersection of the
// 3×3 neighborhood with the image.
func Median3x3(m [][]float64) ([][]float64, error) {
	rows, cols, err := Dims(m)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(rows, cols)
	for r := range m {
		var prev, next []float64
		if r > 0 {
			prev = m[r-1]
		}
		if r+1 < rows {
			next = m[r+1]
		}
		MedianRow(out[r], prev, m[r], next)
	}
	return out, nil
}

// GaussianKernel builds a normalized odd-size Gaussian kernel with the
// given standard deviation. When sigma <= 0 a conventional default of
// 0.3·((size−1)/2 − 1) + 0.8 is used.
func GaussianKernel(size int, sigma float64) ([]float64, error) {
	if size <= 0 || size%2 == 0 {
		return nil, fmt.Errorf("imgproc: Gaussian kernel size must be odd and positive, got %d", size)
	}
	if sigma <= 0 {
		sigma = 0.3*(float64(size-1)/2-1) + 0.8
	}
	k := make([]float64, size)
	half := size / 2
	sum := 0.0
	for i := range k {
		x := float64(i - half)
		k[i] = math.Exp(-x * x / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k, nil
}

// GaussianBlur smooths m with a separable size×size Gaussian kernel
// (paper: kernel size 5) and returns a new matrix. Borders are handled by
// renormalizing over the in-image kernel taps.
func GaussianBlur(m [][]float64, size int, sigma float64) ([][]float64, error) {
	rows, cols, err := Dims(m)
	if err != nil {
		return nil, err
	}
	k, err := GaussianKernel(size, sigma)
	if err != nil {
		return nil, err
	}
	half := size / 2
	tmp := NewMatrix(rows, cols)
	for r := range m {
		GaussianRow(tmp[r], m[r], k)
	}
	out := NewMatrix(rows, cols)
	taps := make([][]float64, size)
	for r := range out {
		for i := range taps {
			taps[i] = nil
			if rr := r + i - half; rr >= 0 && rr < rows {
				taps[i] = tmp[rr]
			}
		}
		GaussianColumn(out[r], taps, k)
	}
	return out, nil
}

// Threshold zeroes every element of m strictly below t, in place, and
// returns m. This implements the paper's bursting-noise gate (threshold α).
func Threshold(m [][]float64, t float64) [][]float64 {
	for _, row := range m {
		for c, v := range row {
			if v < t {
				row[c] = 0
			}
		}
	}
	return m
}

// Normalize01 rescales all elements of m into [0, 1] in place and returns
// m (the paper's zero-one normalization). A constant matrix maps to zeros.
func Normalize01(m [][]float64) [][]float64 {
	first := true
	var minV, maxV float64
	for _, row := range m {
		for _, v := range row {
			if first {
				minV, maxV = v, v
				first = false
				continue
			}
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
	}
	span := maxV - minV
	for _, row := range m {
		for c := range row {
			if span == 0 {
				row[c] = 0
			} else {
				row[c] = (row[c] - minV) / span
			}
		}
	}
	return m
}

// Binarize maps m to a uint8 matrix with 1 where m[r][c] >= t and 0
// elsewhere (paper threshold: 0.15 after normalization). Rows share
// one contiguous backing allocation sized to the total element count,
// so ragged inputs keep their shape without per-row allocations.
func Binarize(m [][]float64, t float64) [][]uint8 {
	total := 0
	for _, row := range m {
		total += len(row)
	}
	backing := make([]uint8, total)
	out := make([][]uint8, len(m))
	for r, row := range m {
		out[r], backing = backing[:len(row):len(row)], backing[len(row):]
		for c, v := range row {
			if v >= t {
				out[r][c] = 1
			}
		}
	}
	return out
}
