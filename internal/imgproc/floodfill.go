package imgproc

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// FillHoles closes the "holes" of a binary image: background (0) regions
// that are not 4-connected to the image border become foreground (1). This
// is the morphological flood-fill-on-background operation the paper cites
// from Soille for repairing binarized Doppler blobs.
//
// The input is not modified; a new matrix is returned.
func FillHoles(bin [][]uint8) ([][]uint8, error) {
	rows, cols, err := dimsU8(bin)
	if err != nil {
		return nil, err
	}
	flat, out := newFlat[uint8](rows, cols)
	flatten(flat, bin)
	var s Scratch
	s.FillHoles(flat, flat, rows, cols)
	return out, nil
}

// flatten copies a rectangular matrix into its row-major flat form.
func flatten(dst []uint8, m [][]uint8) {
	for r, row := range m {
		copy(dst[r*len(row):], row)
	}
}

// Scratch is reusable working memory for the flat binary-image kernels
// (FillHoles, RemoveSmallComponents). Both label 4-connected regions by
// runs: each row is split into maximal runs of one value, runs that
// overlap between adjacent rows are merged in a union-find, and every
// region is then decided whole. The run tables grow on demand and are
// kept between calls, so a caller that holds one Scratch runs the
// kernels without allocating. The zero value is ready to use; a Scratch
// is not safe for concurrent use.
type Scratch struct {
	lo, hi []int32 // column span [lo, hi) of each run, row by row
	start  []int32 // start[r] indexes row r's first run; start[rows] = run count
	parent []int32 // union-find forest over runs
	aux    []int32 // per-root result: border flag or pixel count
}

// collect splits each row of src into maximal runs of value v and merges
// the runs that touch across adjacent rows; aux is zeroed per run.
func (s *Scratch) collect(src []uint8, rows, cols int, v uint8) {
	perRow := (cols + 1) / 2               // most runs one row can hold
	word := uint64(v) * 0x0101010101010101 // eight pixels of value v
	s.start = grow(s.start[:0], rows+1)[:rows+1]
	// Size fresh tables for a few runs per row up front.
	s.lo = grow(s.lo[:0], 2*rows+perRow)
	s.hi = grow(s.hi[:0], 2*rows+perRow)
	for r := 0; r < rows; r++ {
		n := len(s.lo)
		s.start[r] = int32(n)
		// Amortized: grows only when this row could overflow capacity.
		lo, hi := grow(s.lo, perRow)[:n+perRow], grow(s.hi, perRow)[:n+perRow]
		row := src[r*cols : (r+1)*cols]
		for c := 0; c < cols; {
			i := bytes.IndexByte(row[c:], v)
			if i < 0 {
				break
			}
			c += i
			lo[n] = int32(c)
			for c+8 <= cols && binary.LittleEndian.Uint64(row[c:]) == word {
				c += 8
			}
			for c < cols && row[c] == v {
				c++
			}
			hi[n] = int32(c)
			n++
		}
		s.lo, s.hi = lo[:n], hi[:n]
	}
	k := len(s.lo)
	s.start[rows] = int32(k)
	s.parent = grow(s.parent[:0], k)[:k]
	s.aux = grow(s.aux[:0], k)[:k]
	for i := range s.parent {
		s.parent[i], s.aux[i] = int32(i), 0
	}
	for r := 1; r < rows; r++ {
		i, iEnd := s.start[r-1], s.start[r]
		j, jEnd := iEnd, s.start[r+1]
		for i < iEnd && j < jEnd {
			if s.lo[i] < s.hi[j] && s.lo[j] < s.hi[i] {
				s.union(i, j)
			}
			if s.hi[i] < s.hi[j] {
				i++
			} else {
				j++
			}
		}
	}
}

// grow returns s with room for n more elements, keeping its contents.
// It allocates only the new backing array: slices.Grow also allocates a
// temporary in race-instrumented builds, where the compiler does not
// fuse its append of make.
func grow(s []int32, n int) []int32 {
	if cap(s)-len(s) >= n {
		return s
	}
	t := make([]int32, len(s), 2*cap(s)+n)
	copy(t, s)
	return t
}

// find returns the root of run x, halving the path on the way.
func (s *Scratch) find(x int32) int32 {
	p := s.parent
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// union merges the regions of runs a and b under the lower root.
func (s *Scratch) union(a, b int32) {
	ra, rb := s.find(a), s.find(b)
	switch {
	case ra < rb:
		s.parent[rb] = ra
	case rb < ra:
		s.parent[ra] = rb
	}
}

// FillHoles writes the hole-filled image of src into dst; both are
// rows×cols, row-major, and dst may alias src. A pixel of dst is 1 unless
// it is background (0) in src and 4-connected to the image border through
// background.
//
// ew:hotpath — the streaming enhancer runs this over its whole window
// on every pass.
func (s *Scratch) FillHoles(dst, src []uint8, rows, cols int) {
	s.collect(src, rows, cols, 0)
	for r := 0; r < rows; r++ {
		for k := s.start[r]; k < s.start[r+1]; k++ {
			if r == 0 || r == rows-1 || s.lo[k] == 0 || int(s.hi[k]) == cols {
				s.aux[s.find(k)] = 1
			}
		}
	}
	for r := 0; r < rows; r++ {
		row := dst[r*cols : (r+1)*cols]
		for c := range row {
			row[c] = 1
		}
		for k := s.start[r]; k < s.start[r+1]; k++ {
			if s.aux[s.find(k)] == 1 {
				clear(row[s.lo[k]:s.hi[k]])
			}
		}
	}
}

// RemoveSmallComponents writes into dst the foreground (1) pixels of src
// whose 4-connected component has at least minSize pixels; every other
// pixel becomes 0. Both images are rows×cols, row-major; dst may alias
// src.
//
// ew:hotpath — see FillHoles.
func (s *Scratch) RemoveSmallComponents(dst, src []uint8, rows, cols, minSize int) {
	s.collect(src, rows, cols, 1)
	for k := range s.lo {
		s.aux[s.find(int32(k))] += s.hi[k] - s.lo[k]
	}
	for r := 0; r < rows; r++ {
		row := dst[r*cols : (r+1)*cols]
		clear(row)
		for k := s.start[r]; k < s.start[r+1]; k++ {
			if int(s.aux[s.find(k)]) >= minSize {
				for c := s.lo[k]; c < s.hi[k]; c++ {
					row[c] = 1
				}
			}
		}
	}
}

// Component is one 4-connected foreground region of a binary image.
type Component struct {
	// Label is the 1-based component id.
	Label int
	// Size is the pixel count.
	Size int
	// MinRow, MaxRow, MinCol, MaxCol bound the component (inclusive).
	MinRow, MaxRow, MinCol, MaxCol int
}

// ConnectedComponents labels 4-connected foreground regions, returning the
// label matrix (0 = background) and per-component statistics ordered by
// label.
func ConnectedComponents(bin [][]uint8) ([][]int, []Component, error) {
	rows, cols, err := dimsU8(bin)
	if err != nil {
		return nil, nil, err
	}
	labels := NewMatrixOf[int](rows, cols)
	var comps []Component
	stack := make([][2]int, 0, 64)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if bin[r][c] != 1 || labels[r][c] != 0 {
				continue
			}
			id := len(comps) + 1
			comp := Component{Label: id, MinRow: r, MaxRow: r, MinCol: c, MaxCol: c}
			labels[r][c] = id
			stack = append(stack[:0], [2]int{r, c})
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp.Size++
				if p[0] < comp.MinRow {
					comp.MinRow = p[0]
				}
				if p[0] > comp.MaxRow {
					comp.MaxRow = p[0]
				}
				if p[1] < comp.MinCol {
					comp.MinCol = p[1]
				}
				if p[1] > comp.MaxCol {
					comp.MaxCol = p[1]
				}
				for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
					rr, cc := p[0]+d[0], p[1]+d[1]
					if rr < 0 || rr >= rows || cc < 0 || cc >= cols {
						continue
					}
					if bin[rr][cc] == 1 && labels[rr][cc] == 0 {
						labels[rr][cc] = id
						stack = append(stack, [2]int{rr, cc})
					}
				}
			}
			comps = append(comps, comp)
		}
	}
	return labels, comps, nil
}

// RemoveSmallComponents zeroes foreground components smaller than minSize
// pixels, returning a new binary matrix. It is used by the pipeline to
// discard isolated bursting-noise specks that survive thresholding.
func RemoveSmallComponents(bin [][]uint8, minSize int) ([][]uint8, error) {
	rows, cols, err := dimsU8(bin)
	if err != nil {
		return nil, err
	}
	flat, out := newFlat[uint8](rows, cols)
	flatten(flat, bin)
	var s Scratch
	s.RemoveSmallComponents(flat, flat, rows, cols, minSize)
	return out, nil
}

func dimsU8(m [][]uint8) (rows, cols int, err error) {
	rows = len(m)
	if rows == 0 {
		return 0, 0, fmt.Errorf("imgproc: empty binary matrix")
	}
	cols = len(m[0])
	for r, row := range m {
		if len(row) != cols {
			return 0, 0, fmt.Errorf("imgproc: ragged binary matrix: row %d has %d cols, want %d", r, len(row), cols)
		}
	}
	if cols == 0 {
		return 0, 0, fmt.Errorf("imgproc: binary matrix has zero columns")
	}
	return rows, cols, nil
}
