// Package feature turns event-handling intervals into numeric samples for
// outlier detection.
//
// The primary feature is the paper's instruction counter (Definition 4): a
// vector with one dimension per program instruction, holding how many times
// that instruction executed during the interval's wall-clock window. Because
// windows of interleaved instances overlap, an instance whose window covers
// a buggy interleaving accumulates the other instance's instructions — the
// signal Sentomist mines.
//
// Two cruder features, function-call counts and duration, exist for the
// ablation experiments (A2 in DESIGN.md).
package feature

import (
	"fmt"
	"math"
	"sort"

	"sentomist/internal/isa"
	"sentomist/internal/lifecycle"
	"sentomist/internal/stats"
	"sentomist/internal/trace"
)

// Extractor computes features over one recorded run.
type Extractor struct {
	byNode map[int]*trace.NodeTrace
}

// NewExtractor prepares feature extraction over t.
func NewExtractor(t *trace.Trace) *Extractor {
	e := &Extractor{byNode: make(map[int]*trace.NodeTrace, len(t.Nodes))}
	for _, nt := range t.Nodes {
		e.byNode[nt.NodeID] = nt
	}
	return e
}

// nodeWindow resolves iv's node trace and validates its marker window —
// the one bounds check shared by every marker-walking feature.
func (e *Extractor) nodeWindow(iv lifecycle.Interval) (*trace.NodeTrace, error) {
	nt, ok := e.byNode[iv.Node]
	if !ok {
		return nil, fmt.Errorf("feature: no trace for node %d", iv.Node)
	}
	if iv.StartMarker < 0 || iv.EndMarker >= len(nt.Markers) || iv.EndMarker < iv.StartMarker {
		return nil, fmt.Errorf("feature: interval markers [%d,%d] out of range (node %d has %d)",
			iv.StartMarker, iv.EndMarker, iv.Node, len(nt.Markers))
	}
	return nt, nil
}

// Counter returns the instruction counter of iv: dimension i is the number
// of executions of instruction i within the interval window.
func (e *Extractor) Counter(iv lifecycle.Interval) ([]float64, error) {
	nt, err := e.nodeWindow(iv)
	if err != nil {
		return nil, err
	}
	v := make([]float64, nt.ProgramLen)
	// Marker m's delta covers instructions executed in (m-1, m]; the
	// interval window is (StartMarker, EndMarker].
	for m := iv.StartMarker + 1; m <= iv.EndMarker; m++ {
		for _, d := range nt.Markers[m].Deltas {
			v[d.PC] += float64(d.Count)
		}
	}
	return v, nil
}

// CounterSparse is Counter without materializing the dense vector: the
// marker deltas are accumulated straight into a sorted (pc, count) list.
// An interval executes a tiny slice of the binary, so the result holds a
// handful of entries instead of ProgramLen dimensions. Per-PC counts are
// accumulated in marker order, exactly as Counter does, so the densified
// result is bit-identical to Counter's.
func (e *Extractor) CounterSparse(iv lifecycle.Interval) (stats.Sparse, error) {
	nt, err := e.nodeWindow(iv)
	if err != nil {
		return stats.Sparse{}, err
	}
	// Collect the window's deltas, stable-sort by PC, then coalesce
	// runs. The stable sort keeps each PC's deltas in marker order, so
	// per-PC sums accumulate in exactly the order Counter adds them.
	total := 0
	for m := iv.StartMarker + 1; m <= iv.EndMarker; m++ {
		total += len(nt.Markers[m].Deltas)
	}
	type pcCount struct {
		pc    uint16
		count float64
	}
	pairs := make([]pcCount, 0, total)
	for m := iv.StartMarker + 1; m <= iv.EndMarker; m++ {
		for _, d := range nt.Markers[m].Deltas {
			if d.Count == 0 {
				continue
			}
			pairs = append(pairs, pcCount{d.PC, float64(d.Count)})
		}
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].pc < pairs[b].pc })
	s := stats.Sparse{
		Idx: make([]int32, 0, len(pairs)),
		Val: make([]float64, 0, len(pairs)),
		Dim: nt.ProgramLen,
	}
	for i := 0; i < len(pairs); {
		pc := pairs[i].pc
		sum := pairs[i].count
		for i++; i < len(pairs) && pairs[i].pc == pc; i++ {
			sum += pairs[i].count
		}
		s.Idx = append(s.Idx, int32(pc))
		s.Val = append(s.Val, sum)
	}
	return s, nil
}

// FuncCounter aggregates iv's instruction counter per function: one
// dimension per label in prog, counting executions of instructions between
// that label and the next. It is the coarse feature of ablation A2.
func (e *Extractor) FuncCounter(prog *isa.Program, iv lifecycle.Interval) ([]float64, error) {
	raw, err := e.Counter(iv)
	if err != nil {
		return nil, err
	}
	starts := labelStarts(prog)
	if len(starts) == 0 {
		return nil, fmt.Errorf("feature: program has no symbols for function counting")
	}
	out := make([]float64, len(starts))
	for pc, c := range raw {
		if c == 0 {
			continue
		}
		out[regionOf(starts, pc)] += c
	}
	return out, nil
}

// Duration returns the 1-dimensional duration feature in cycles.
func (e *Extractor) Duration(iv lifecycle.Interval) []float64 {
	return []float64{float64(iv.Duration())}
}

// StackDepth returns the 1-dimensional peak-stack-depth feature in bytes —
// the "memory usage" attribute the paper's Section V-B lists among the
// straightforward candidates (and rejects as application-specific).
func (e *Extractor) StackDepth(iv lifecycle.Interval) ([]float64, error) {
	nt, err := e.nodeWindow(iv)
	if err != nil {
		return nil, err
	}
	minSP := uint16(0xffff)
	for m := iv.StartMarker + 1; m <= iv.EndMarker; m++ {
		if sp := nt.Markers[m].MinSP; sp < minSP {
			minSP = sp
		}
	}
	if minSP == 0xffff {
		// No instructions in the window: empty stack usage.
		return []float64{0}, nil
	}
	return []float64{float64(isa.RAMSize-1) - float64(minSP)}, nil
}

// labelStarts returns the sorted distinct label addresses of prog.
func labelStarts(prog *isa.Program) []int {
	starts := make([]int, 0, len(prog.Symbols))
	for addr := range prog.Symbols {
		starts = append(starts, int(addr))
	}
	sort.Ints(starts)
	return starts
}

// regionOf returns the index of the label region containing pc: the last
// start <= pc, or region 0 for code before the first label.
func regionOf(starts []int, pc int) int {
	i := sort.SearchInts(starts, pc+1) - 1
	if i < 0 {
		return 0
	}
	return i
}

// Scale01 rescales each dimension of samples to [0,1] in place (LIBSVM's
// recommended preprocessing, which the paper's back end uses). Dimensions
// that are constant across all samples become 0. It returns samples.
func Scale01(samples [][]float64) [][]float64 {
	if len(samples) == 0 {
		return samples
	}
	dim := len(samples[0])
	for d := 0; d < dim; d++ {
		lo, hi := samples[0][d], samples[0][d]
		for _, s := range samples[1:] {
			if s[d] < lo {
				lo = s[d]
			}
			if s[d] > hi {
				hi = s[d]
			}
		}
		switch span := hi - lo; {
		case span != 0:
			for _, s := range samples {
				s[d] = (s[d] - lo) / span
			}
		case lo != 0:
			// Constant nonzero dimension: collapse to 0.
			for _, s := range samples {
				s[d] = 0
			}
			// Constant-zero dimensions (the vast majority in sparse
			// instruction counters) need no writes at all.
		}
	}
	return samples
}

// Scale01Sparse rescales each dimension of sparse samples to [0,1] in
// place, with exactly Scale01's semantics on the densified matrix: absent
// entries are zeros that participate in each dimension's min/max, constant
// dimensions collapse to all-zero. Entries whose scaled value is 0 are
// dropped, so scaling can only increase sparsity. It returns samples.
//
// Values must be nonnegative (instruction counters are counts). With a
// negative entry, a dimension's minimum could fall below zero and the
// implicit zeros of absent entries would themselves rescale to a nonzero
// value — unrepresentable without densifying — so Scale01Sparse panics
// rather than silently diverging from Scale01.
func Scale01Sparse(samples []stats.Sparse) []stats.Sparse {
	if len(samples) == 0 {
		return samples
	}
	dim := samples[0].Dim
	// Per-dimension min/max over explicit entries, plus how many samples
	// carry the dimension — absent entries contribute an implicit 0.
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	present := make([]int, dim)
	for d := range lo {
		lo[d] = math.Inf(1)
		hi[d] = math.Inf(-1)
	}
	for _, s := range samples {
		for i, d := range s.Idx {
			v := s.Val[i]
			if v < 0 {
				panic(fmt.Sprintf("feature: Scale01Sparse requires nonnegative values, got %g at dim %d", v, d))
			}
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
			present[d]++
		}
	}
	n := len(samples)
	for d := range lo {
		if present[d] < n {
			// Some sample holds an implicit zero here.
			if lo[d] > 0 || present[d] == 0 {
				lo[d] = 0
			}
			if hi[d] < 0 || present[d] == 0 {
				hi[d] = 0
			}
		}
	}
	for si := range samples {
		s := &samples[si]
		kept := 0
		for i, d := range s.Idx {
			span := hi[d] - lo[d]
			if span == 0 {
				continue // constant dimension: scaled value is 0
			}
			v := (s.Val[i] - lo[d]) / span
			if v == 0 {
				continue
			}
			s.Idx[kept] = d
			s.Val[kept] = v
			kept++
		}
		s.Idx = s.Idx[:kept]
		s.Val = s.Val[:kept]
	}
	return samples
}
