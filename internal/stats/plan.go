package stats

import "fmt"

// A MergePlan is the merge of two index lists, worked out once so that any
// number of value pairs over those two lists can be combined without
// comparing an index again. Instruction counters of one event procedure
// share a handful of index lists (intervals run a few code paths), so a
// kernel column over thousands of counters needs only one plan per pair of
// lists.
//
// The plan is a list of runs in ascending index order: both sides present,
// left only, or right only. The evaluators walk it and take exactly the
// additions SparseSqDist and SparseDot take, in the same order, so every
// result is bit-identical to theirs (and to SqDist and Dot on the
// densified vectors).
type MergePlan struct {
	runs   []mergeRun
	nl, nr int // lengths of the left and right index lists
	union  int // indices in either list: the per-pair steps of SqDist
	shared int // indices in both lists: the per-pair steps of Dot
}

type runKind uint8

const (
	runBoth runKind = iota
	runLeft
	runRight
)

// mergeRun covers n consecutive merge steps of one kind, starting at
// position i of the left list and j of the right list.
type mergeRun struct {
	kind    runKind
	i, j, n int32
}

// Reset replans p for the left index list a and the right index list b,
// reusing p's storage. Both lists must be strictly ascending.
func (p *MergePlan) Reset(a, b []int32) {
	p.runs = p.runs[:0]
	p.nl, p.nr, p.shared = len(a), len(b), 0
	add := func(kind runKind, i, j int) {
		if k := len(p.runs) - 1; k >= 0 && p.runs[k].kind == kind {
			p.runs[k].n++
			return
		}
		p.runs = append(p.runs, mergeRun{kind: kind, i: int32(i), j: int32(j), n: 1})
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			add(runLeft, i, j)
			i++
		case a[i] > b[j]:
			add(runRight, i, j)
			j++
		default:
			add(runBoth, i, j)
			p.shared++
			i++
			j++
		}
	}
	for ; i < len(a); i++ {
		add(runLeft, i, j)
	}
	for ; j < len(b); j++ {
		add(runRight, i, j)
	}
	p.union = len(a) + len(b) - p.shared
}

// Union returns how many indices appear in either list.
func (p *MergePlan) Union() int { return p.union }

// Shared returns how many indices appear in both lists.
func (p *MergePlan) Shared() int { return p.shared }

func (p *MergePlan) check(op string, a []float64, b *[4][]float64) {
	if len(a) != p.nl || len(b[0]) != p.nr || len(b[1]) != p.nr || len(b[2]) != p.nr || len(b[3]) != p.nr {
		panic(fmt.Sprintf("stats: %s values do not fit a plan of %d and %d indices", op, p.nl, p.nr))
	}
}

// SqDist4 sets out[k] to ‖a−b[k]‖² for the values a over the plan's left
// list and four value lists b[k] over its right list. The four sums are
// independent accumulators, so the floating-point adds overlap across
// pairs rather than waiting on one dependency chain, while each sum still
// takes its own additions in its own order: out[k] equals SparseSqDist bit
// for bit.
func (p *MergePlan) SqDist4(a []float64, b *[4][]float64, out *[4]float64) {
	p.check("MergePlan.SqDist4", a, b)
	var s0, s1, s2, s3 float64
	for _, r := range p.runs {
		switch r.kind {
		case runBoth:
			x := a[r.i : r.i+r.n]
			y0 := b[0][r.j : r.j+r.n][:len(x)]
			y1 := b[1][r.j : r.j+r.n][:len(x)]
			y2 := b[2][r.j : r.j+r.n][:len(x)]
			y3 := b[3][r.j : r.j+r.n][:len(x)]
			for t, v := range x {
				d0 := v - y0[t]
				s0 += d0 * d0
				d1 := v - y1[t]
				s1 += d1 * d1
				d2 := v - y2[t]
				s2 += d2 * d2
				d3 := v - y3[t]
				s3 += d3 * d3
			}
		case runLeft:
			for _, v := range a[r.i : r.i+r.n] {
				s0 += v * v
				s1 += v * v
				s2 += v * v
				s3 += v * v
			}
		case runRight:
			y0 := b[0][r.j : r.j+r.n]
			y1 := b[1][r.j : r.j+r.n][:len(y0)]
			y2 := b[2][r.j : r.j+r.n][:len(y0)]
			y3 := b[3][r.j : r.j+r.n][:len(y0)]
			for t, v0 := range y0 {
				s0 += v0 * v0
				v1 := y1[t]
				s1 += v1 * v1
				v2 := y2[t]
				s2 += v2 * v2
				v3 := y3[t]
				s3 += v3 * v3
			}
		}
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
}

// Dot4 is SqDist4 for the inner product: out[k] equals SparseDot bit for
// bit.
func (p *MergePlan) Dot4(a []float64, b *[4][]float64, out *[4]float64) {
	p.check("MergePlan.Dot4", a, b)
	var s0, s1, s2, s3 float64
	for _, r := range p.runs {
		if r.kind != runBoth {
			continue
		}
		x := a[r.i : r.i+r.n]
		y0 := b[0][r.j : r.j+r.n][:len(x)]
		y1 := b[1][r.j : r.j+r.n][:len(x)]
		y2 := b[2][r.j : r.j+r.n][:len(x)]
		y3 := b[3][r.j : r.j+r.n][:len(x)]
		for t, v := range x {
			s0 += v * y0[t]
			s1 += v * y1[t]
			s2 += v * y2[t]
			s3 += v * y3[t]
		}
	}
	out[0], out[1], out[2], out[3] = s0, s1, s2, s3
}
