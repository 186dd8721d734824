package svm

import (
	"encoding/binary"
	"sort"
	"sync"

	"sentomist/internal/stats"
)

// The SMO solver reads the Gram matrix exclusively through full columns
// over the problem's groups of bit-identical samples (see solveFrom):
// gradient initialization walks the columns carrying initial mass, each
// update step needs the two working-set columns, and Gram-reuse scoring
// walks the support-vector columns. gramProvider is that access path.
// Training reads it through colCache, which memoizes columns in an LRU
// bounded by Config.CacheBytes and computes misses on demand; the
// differential tests also hand the solver fully materialized matrices of
// the very same float64 cells.
type gramProvider interface {
	// col returns column g of the G×G group matrix Q, length G (the
	// number of groups): col(g)[h] == Q[h][g], the kernel value between
	// the representatives of groups h and g. The returned slice is
	// read-only and guaranteed valid until the second following col call
	// (the cache never evicts its two most recently returned columns),
	// which is exactly the pinning the solver needs.
	col(g int) []float64
}

// sparseColSource evaluates columns over the distinct vectors of a sparse
// batch: samples with bit-identical contents form one group, numbered by
// first occurrence, and a column holds one kernel value per group.
//
// The source is growable: extendTo appends newly arrived samples to the
// dedup state without disturbing existing group assignments, which is what
// lets an online refit keep kernel columns cached across solves (see
// Incremental) — old samples keep their keys, new samples join existing
// groups or open new ones.
//
// Groups are further sorted into shapes: a shape is one distinct index
// list. Intervals of one event procedure run a few code paths, so
// thousands of distinct counters share a handful of shapes, and a column
// fill merges index lists once per (column shape, member shape) pair
// instead of once per cell (see evalFrom).
type sparseColSource struct {
	samples []stats.Sparse
	kernel  SparseKernel
	reps    []int          // sample index of each group representative
	group   []int          // sample index -> group
	seen    map[string]int // dedup key -> group (persistent across extendTo)
	keyBuf  []byte
	workers int

	shapeOf map[string]int // index-list key -> shape
	members [][]int        // shape -> its groups, ascending

	// Planned evaluation (built-in kernels, see mergeEval): a column cell
	// is of(squared distance) when sqDist is set, of(dot) otherwise. of is
	// nil for any other kernel, whose cells stay per-cell EvalSparse.
	sqDist bool
	of     func(float64) float64

	// Per-fill scratch, reused so a steady-state miss allocates nothing.
	dst    []float64         // the column being filled
	plans  []stats.MergePlan // shape -> plan of (column's shape, shape)
	tasks  []fillTask
	split  []fillTask
	bounds []int // worker w runs tasks[bounds[w]:bounds[w+1]]
	wg     sync.WaitGroup
}

// fillTask is a run of one shape's groups, members[shape][lo:hi], to be
// evaluated against a column; per is the estimated cost of one group in
// merge steps.
type fillTask struct {
	shape, lo, hi, per int
	planned            bool
}

// cellSteps is the fixed cost of one cell beyond its merge — the kernel's
// exp or pow and the store — counted in merge steps.
const cellSteps = 16

// minParallelWork is the smallest column fill, in merge steps (one per
// index or dimension visited), that justifies fanning out across
// goroutines; below it the spawn overhead dominates.
const minParallelWork = 1 << 15

// mergeEval says how a built-in kernel evaluates through a merge plan:
// over the squared distance (RBF) or the dot (Linear, Poly), mapped to the
// kernel value by the very function EvalSparse applies, so a planned cell
// equals EvalSparse bit for bit. of is nil for any other kernel.
func mergeEval(k SparseKernel) (sqDist bool, of func(float64) float64) {
	switch k := k.(type) {
	case RBF:
		return true, k.ofSqDist
	case Linear:
		return false, func(d float64) float64 { return d }
	case Poly:
		return false, k.ofDot
	}
	return false, nil
}

func newSparseColSource(samples []stats.Sparse, kernel SparseKernel, workers int) *sparseColSource {
	s := &sparseColSource{
		kernel:  kernel,
		seen:    make(map[string]int, len(samples)),
		shapeOf: make(map[string]int),
		workers: workers,
	}
	s.sqDist, s.of = mergeEval(kernel)
	s.extendTo(samples)
	return s
}

// extendTo rebinds the source to the full current batch, deduplicating only
// the tail beyond what was already absorbed. The prefix of all must be
// bitwise identical to the previous batch (same vector contents; the
// backing slices may differ), so existing reps/group entries — and any
// kernel values derived from them — remain exact; new groups are numbered
// after the old ones, so a cached column only misses its tail.
//
// Keys are stats.AppendKey's, so only bit-identical vectors share a group
// — a missed match (e.g. ±0) merely costs an extra group, never
// correctness. A source built in one shot and one grown batch by batch
// assign identical groups.
func (s *sparseColSource) extendTo(all []stats.Sparse) {
	oldLen := len(s.group)
	s.samples = all
	for i := oldLen; i < len(all); i++ {
		sm := all[i]
		key := stats.AppendKey(s.keyBuf[:0], sm)
		s.keyBuf = key[:0]
		if gi, ok := s.seen[string(key)]; ok {
			s.group = append(s.group, gi)
			continue
		}
		gi := len(s.reps)
		s.seen[string(key)] = gi
		s.group = append(s.group, gi)
		s.reps = append(s.reps, i)
		s.addToShape(gi, sm.Idx)
	}
}

// addToShape files new group gi under the shape of its index list idx,
// opening a shape for a list not seen before.
func (s *sparseColSource) addToShape(gi int, idx []int32) {
	key := s.keyBuf[:0]
	for _, x := range idx {
		key = binary.LittleEndian.AppendUint32(key, uint32(x))
	}
	s.keyBuf = key[:0]
	sh, ok := s.shapeOf[string(key)]
	if !ok {
		sh = len(s.members)
		s.shapeOf[string(key)] = sh
		s.members = append(s.members, nil)
		s.plans = append(s.plans, stats.MergePlan{})
	}
	s.members[sh] = append(s.members[sh], gi)
}

// release drops the sample references so a caller can let a replayed batch
// be collected between refits; the next extendTo rebinds bitwise-identical
// content. Dedup state, group assignments, and cached columns stay valid.
func (s *sparseColSource) release() { s.samples = nil }

func (s *sparseColSource) distinct() int { return len(s.reps) }

// evalCell computes the kernel value between group b's representative and
// rg (group g's representative) with one merge, larger group index first
// (the orientation of the per-sample reference Gram).
func (s *sparseColSource) evalCell(b, g int, rg stats.Sparse) float64 {
	if b >= g {
		return s.kernel.EvalSparse(s.samples[s.reps[b]], rg)
	}
	return s.kernel.EvalSparse(rg, s.samples[s.reps[b]])
}

func (s *sparseColSource) fill(g int, dst []float64) { s.evalFrom(g, 0, dst) }

// evalFrom sets dst[b] to the kernel value of group b against column g
// for every group b >= from and leaves dst[:from] as it is, which is how a
// cached column filled before extendTo grew the source is extended in place
// (see colCache.col). For a built-in kernel each member shape is
// merged with the column's shape once, into a plan, and the plan is walked
// for four members at a time; every cell still takes exactly the additions
// of its own merge, so it equals evalCell bit for bit (the merges are
// symmetric bit for bit, so the plan needs no orientation rule). A shape
// with fewer than four pending members, the members left over from the
// fours, and every cell of a kernel outside RBF/Linear/Poly are evaluated
// per cell, by one merge each: a plan costs about one merge to build, so
// it pays only when walked for four members at once. The work is shared
// across the worker pool by estimated cost; each cell is written by
// exactly one worker, so the result is independent of scheduling.
func (s *sparseColSource) evalFrom(g, from int, dst []float64) {
	s.planFill(s.samples[s.reps[g]].Idx, from)
	s.dst = dst
	parts := len(s.bounds) - 1
	if parts > 1 {
		s.wg.Add(parts - 1)
		for w := 1; w < parts; w++ {
			go s.runShare(g, w)
		}
		s.runTasks(g, 0)
		s.wg.Wait()
	} else {
		s.runTasks(g, 0)
	}
	s.dst = nil
}

// planFill builds the merge plans of a fill against a column with index
// list ci and cuts its pending groups into tasks, one run of tasks per
// worker, of near-equal estimated cost.
func (s *sparseColSource) planFill(ci []int32, from int) {
	s.tasks = s.tasks[:0]
	total := 0
	for sh, mem := range s.members {
		lo := sort.SearchInts(mem, from)
		if lo == len(mem) {
			continue
		}
		im := s.samples[s.reps[mem[0]]].Idx
		t := fillTask{shape: sh, lo: lo, hi: len(mem), per: len(ci) + len(im) + cellSteps}
		if s.of != nil && len(mem)-lo >= 4 {
			p := &s.plans[sh]
			p.Reset(ci, im)
			t.planned = true
			if t.per = p.Union(); !s.sqDist {
				t.per = p.Shared()
			}
			t.per += cellSteps
		}
		s.tasks = append(s.tasks, t)
		total += (t.hi - t.lo) * t.per
	}
	s.bounds = append(s.bounds[:0], 0, len(s.tasks))
	parts := s.workers
	if parts <= 1 || total < minParallelWork {
		return
	}
	share := (total + parts - 1) / parts
	room := share
	out := s.split[:0]
	s.bounds = s.bounds[:1]
	for _, t := range s.tasks {
		for t.lo < t.hi {
			n := t.hi - t.lo
			if len(s.bounds) < parts && n*t.per > room {
				// Fill the room with whole four-member blocks.
				n = min(n, max(4, ((room+t.per-1)/t.per+3)&^3))
			}
			cut := t
			cut.hi = t.lo + n
			out = append(out, cut)
			t.lo += n
			if room -= n * t.per; room <= 0 && len(s.bounds) < parts {
				s.bounds = append(s.bounds, len(out))
				room += share
			}
		}
	}
	if s.bounds[len(s.bounds)-1] != len(out) {
		s.bounds = append(s.bounds, len(out))
	}
	s.tasks, s.split = out, s.tasks
}

func (s *sparseColSource) runShare(g, w int) {
	defer s.wg.Done()
	s.runTasks(g, w)
}

// runTasks evaluates worker w's tasks of the current fill against column g.
func (s *sparseColSource) runTasks(g, w int) {
	rg := s.samples[s.reps[g]]
	var vs [4][]float64
	var out [4]float64
	for _, t := range s.tasks[s.bounds[w]:s.bounds[w+1]] {
		mem := s.members[t.shape][t.lo:t.hi]
		if !t.planned {
			for _, b := range mem {
				s.dst[b] = s.evalCell(b, g, rg)
			}
			continue
		}
		p := &s.plans[t.shape]
		for ; len(mem) >= 4; mem = mem[4:] {
			for k := range vs {
				vs[k] = s.samples[s.reps[mem[k]]].Val
			}
			if s.sqDist {
				p.SqDist4(rg.Val, &vs, &out)
			} else {
				p.Dot4(rg.Val, &vs, &out)
			}
			for k, b := range mem[:4] {
				s.dst[b] = s.of(out[k])
			}
		}
		for _, b := range mem {
			s.dst[b] = s.evalCell(b, g, rg)
		}
	}
}

// colEntry is one resident column in the LRU. After the source grows, a
// resident column stays short (its length is the group count at its last
// fill) until the solver actually asks for it, and only then pays for its
// missing tail.
type colEntry struct {
	key        int
	col        []float64
	prev, next *colEntry
}

// colCache is the libsvm-style kernel cache: an LRU of full columns bounded
// by a byte budget. It is pure memoization — a hit returns exactly the
// float64s a miss would recompute — so the solver's result is independent
// of the budget. At least two columns are always resident (the solver
// holds the two working-set columns at once), and evicted slices are
// recycled into the incoming column, so steady-state misses allocate
// nothing.
type colCache struct {
	src     *sparseColSource
	entries map[int]*colEntry
	head    *colEntry // most recently used
	tail    *colEntry // next to evict
	capCols int

	hits, misses int64
}

// budgetCols translates a byte budget into a column capacity for a source
// with g groups, whose columns hold g cells: at least two columns (the
// solver pins the two working-set columns), at most one per group.
func budgetCols(budgetBytes int64, g int) int {
	capCols := 2
	if g > 0 {
		if byBudget := budgetBytes / int64(8*g); byBudget > 2 {
			if byBudget > int64(g) {
				capCols = g
			} else {
				capCols = int(byBudget)
			}
		}
	}
	if capCols < 2 {
		capCols = 2
	}
	return capCols
}

func newColCache(src *sparseColSource, budgetBytes int64) *colCache {
	capCols := budgetCols(budgetBytes, src.distinct())
	return &colCache{
		src:     src,
		entries: make(map[int]*colEntry, capCols),
		capCols: capCols,
	}
}

// grow re-budgets the cache after its sparse source absorbed new samples
// (extendTo). Resident columns are NOT eagerly extended: each keeps its
// length and pays for its missing tail only if and when the solver asks
// for it again (see col) — eager extension would spend
// (new group × resident column) kernel evaluations on columns the next solve
// may never touch. When the per-column footprint pushes the resident set
// past the new budget, least-recently-used columns are dropped first.
func (c *colCache) grow(budgetBytes int64) {
	c.capCols = budgetCols(budgetBytes, c.src.distinct())
	for len(c.entries) > c.capCols && c.tail != nil {
		e := c.tail
		c.detach(e)
		delete(c.entries, e.key)
	}
}

// resize returns col with length n, reusing its backing array when it fits
// and preserving the already-filled prefix otherwise.
func resize(col []float64, n int) []float64 {
	if cap(col) >= n {
		return col[:n]
	}
	grown := make([]float64, n)
	copy(grown, col)
	return grown
}

func (c *colCache) col(g int) []float64 {
	n := c.src.distinct()
	if e := c.entries[g]; e != nil {
		c.hits++
		if from := len(e.col); from < n {
			// The source gained groups since this column was filled:
			// extend it in place, paying only (new group, this column)
			// kernel evaluations. Within one solve the group count is
			// fixed, so a pinned working-set slice is never reallocated
			// mid-solve.
			e.col = resize(e.col, n)
			c.src.evalFrom(g, from, e.col)
		}
		c.moveToFront(e)
		return e.col
	}
	c.misses++
	var e *colEntry
	if len(c.entries) < c.capCols {
		e = &colEntry{col: make([]float64, n)}
	} else {
		e = c.tail
		c.detach(e)
		delete(c.entries, e.key)
		e.col = resize(e.col, n)
	}
	e.key = g
	c.src.fill(g, e.col)
	c.entries[g] = e
	c.pushFront(e)
	return e.col
}

func (c *colCache) moveToFront(e *colEntry) {
	if c.head == e {
		return
	}
	c.detach(e)
	c.pushFront(e)
}

func (c *colCache) detach(e *colEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *colCache) pushFront(e *colEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}
