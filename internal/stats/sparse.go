package stats

import "fmt"

// Sparse is a sparse vector: strictly ascending indices paired with their
// values, plus the logical dense dimension. Instruction counters are the
// motivating use: an event-handling interval executes a tiny slice of the
// binary, so a counter of ProgramLen dimensions has only a handful of
// nonzeros.
//
// The merge-based operations below (SparseDot, SparseSqDist) visit indices
// in ascending order and skip only terms that contribute an exact 0.0 to
// the dense accumulation, so their results are bit-identical to Dot and
// SqDist on the densified vectors — rankings computed through either
// representation agree exactly, not just within a tolerance.
type Sparse struct {
	Idx []int32
	Val []float64
	Dim int
}

// NNZ returns the number of stored entries.
func (s Sparse) NNZ() int { return len(s.Idx) }

// Dense materializes the vector as a []float64 of length Dim.
func (s Sparse) Dense() []float64 {
	v := make([]float64, s.Dim)
	for i, idx := range s.Idx {
		v[idx] = s.Val[i]
	}
	return v
}

// DenseToSparse converts v, keeping only nonzero entries.
func DenseToSparse(v []float64) Sparse {
	s := Sparse{Dim: len(v)}
	for d, x := range v {
		if x != 0 {
			s.Idx = append(s.Idx, int32(d))
			s.Val = append(s.Val, x)
		}
	}
	return s
}

func checkSparseDims(op string, a, b Sparse) {
	if a.Dim != b.Dim {
		panic(fmt.Sprintf("stats: %s dimension mismatch %d vs %d", op, a.Dim, b.Dim))
	}
}

// SparseDot returns ⟨a,b⟩ by merging the two index lists; cost is
// O(nnz(a)+nnz(b)) instead of O(Dim).
//
// Instruction counters from the same program overwhelmingly share their
// index lists (intervals execute the same code path), so the merge runs a
// blocked fast path: while the next four index pairs line up it processes
// them without the three-way branch, falling back to the scalar merge the
// moment they diverge. Indices present on only one side contribute no term
// at all, so long disjoint stretches — counters from different code paths —
// are skipped by a galloping search instead of stepped through one element
// at a time. The accumulator takes exactly the same additions in exactly
// the same order either way, so the result stays bit-identical to the plain
// merge (and to Dot on the densified vectors).
func SparseDot(a, b Sparse) float64 {
	checkSparseDims("SparseDot", a, b)
	var s float64
	i, j := 0, 0
	na, nb := len(a.Idx), len(b.Idx)
	for i+3 < na && j+3 < nb {
		if a.Idx[i] == b.Idx[j] && a.Idx[i+1] == b.Idx[j+1] &&
			a.Idx[i+2] == b.Idx[j+2] && a.Idx[i+3] == b.Idx[j+3] {
			s += a.Val[i] * b.Val[j]
			s += a.Val[i+1] * b.Val[j+1]
			s += a.Val[i+2] * b.Val[j+2]
			s += a.Val[i+3] * b.Val[j+3]
			i += 4
			j += 4
			continue
		}
		switch {
		case a.Idx[i] < b.Idx[j]:
			i = seekIdx(a.Idx, i, b.Idx[j])
		case a.Idx[i] > b.Idx[j]:
			j = seekIdx(b.Idx, j, a.Idx[i])
		default:
			s += a.Val[i] * b.Val[j]
			i++
			j++
		}
	}
	for i < na && j < nb {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i = seekIdx(a.Idx, i, b.Idx[j])
		case a.Idx[i] > b.Idx[j]:
			j = seekIdx(b.Idx, j, a.Idx[i])
		default:
			s += a.Val[i] * b.Val[j]
			i++
			j++
		}
	}
	return s
}

// seekIdx returns the smallest position p ≥ i with idx[p] ≥ target, given
// idx[i] < target: an exponential gallop followed by a binary search, so a
// run of r skippable indices costs O(log r) comparisons instead of r.
func seekIdx(idx []int32, i int, target int32) int {
	n := len(idx)
	step := 1
	for i+step < n && idx[i+step] < target {
		i += step
		step <<= 1
	}
	hi := i + step
	if hi > n {
		hi = n
	}
	for i+1 < hi {
		mid := int(uint(i+hi) >> 1)
		if idx[mid] < target {
			i = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// SparseSqDist returns ‖a−b‖² by merging the two index lists in ascending
// order. Dimensions where both vectors are zero contribute an exact 0.0 to
// the dense sum, so skipping them leaves every partial sum — and the result
// — bit-identical to SqDist on the densified vectors.
//
// Like SparseDot it runs a blocked fast path over 4-aligned index runs
// (the common case for counters sharing a code path); the additions hit
// the accumulator in the same order as the scalar merge, so results are
// unchanged bit-for-bit.
func SparseSqDist(a, b Sparse) float64 {
	checkSparseDims("SparseSqDist", a, b)
	var s float64
	i, j := 0, 0
	na, nb := len(a.Idx), len(b.Idx)
	for i+3 < na && j+3 < nb {
		if a.Idx[i] == b.Idx[j] && a.Idx[i+1] == b.Idx[j+1] &&
			a.Idx[i+2] == b.Idx[j+2] && a.Idx[i+3] == b.Idx[j+3] {
			d0 := a.Val[i] - b.Val[j]
			s += d0 * d0
			d1 := a.Val[i+1] - b.Val[j+1]
			s += d1 * d1
			d2 := a.Val[i+2] - b.Val[j+2]
			s += d2 * d2
			d3 := a.Val[i+3] - b.Val[j+3]
			s += d3 * d3
			i += 4
			j += 4
			continue
		}
		switch {
		case a.Idx[i] < b.Idx[j]:
			s += a.Val[i] * a.Val[i]
			i++
		case a.Idx[i] > b.Idx[j]:
			s += b.Val[j] * b.Val[j]
			j++
		default:
			d := a.Val[i] - b.Val[j]
			s += d * d
			i++
			j++
		}
	}
	for i < na && j < nb {
		switch {
		case a.Idx[i] < b.Idx[j]:
			s += a.Val[i] * a.Val[i]
			i++
		case a.Idx[i] > b.Idx[j]:
			s += b.Val[j] * b.Val[j]
			j++
		default:
			d := a.Val[i] - b.Val[j]
			s += d * d
			i++
			j++
		}
	}
	for ; i < len(a.Idx); i++ {
		s += a.Val[i] * a.Val[i]
	}
	for ; j < len(b.Idx); j++ {
		s += b.Val[j] * b.Val[j]
	}
	return s
}
