package svm

import (
	"math"
	"sync/atomic"
	"testing"

	"sentomist/internal/randx"
	"sentomist/internal/stats"
)

// shapedCorpus draws n counters over a few shared index lists, the regime
// planned fills target: each counter takes one of the lists with values
// quantized so that some counters repeat, and some stored values are an
// explicit +0 or −0. The last `singletons` counters each get an index list
// of their own.
func shapedCorpus(rng *randx.RNG, n, dim, lists, singletons int) []stats.Sparse {
	drawList := func() []int32 {
		var idx []int32
		for d := 0; d < dim; d++ {
			if rng.Bool(0.2) {
				idx = append(idx, int32(d))
			}
		}
		return idx
	}
	shared := make([][]int32, lists)
	for i := range shared {
		shared[i] = drawList()
	}
	out := make([]stats.Sparse, n)
	for i := range out {
		idx := shared[rng.Intn(lists)]
		if i >= n-singletons {
			idx = drawList()
		}
		s := stats.Sparse{Idx: idx, Val: make([]float64, len(idx)), Dim: dim}
		for k := range s.Val {
			switch rng.Intn(12) {
			case 0:
				s.Val[k] = 0
			case 1:
				s.Val[k] = math.Copysign(0, -1)
			default:
				s.Val[k] = float64(1+rng.Intn(6)) / 4
			}
		}
		out[i] = s
	}
	return out
}

func sameCell(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkColumn asserts that dst, a filled column g of src, has one cell per
// group and holds at every group exactly the per-cell merge evaluation.
func checkColumn(t *testing.T, label string, src *sparseColSource, g int, dst []float64) {
	t.Helper()
	if len(dst) != src.distinct() {
		t.Fatalf("%s column %d has %d cells for %d groups", label, g, len(dst), src.distinct())
	}
	rg := src.samples[src.reps[g]]
	for b := range dst {
		if want := src.evalCell(b, g, rg); !sameCell(dst[b], want) {
			t.Fatalf("%s column %d group %d: planned %v, per-cell %v", label, g, b, dst[b], want)
		}
	}
}

// TestPlannedFillMatchesEvalCell: a shape-planned column fill equals the
// per-cell merge bit for bit for every built-in kernel, on one worker and
// split across two.
func TestPlannedFillMatchesEvalCell(t *testing.T) {
	rng := randx.New(71)
	samples := shapedCorpus(rng, 900, 400, 5, 3)
	for _, kernel := range []SparseKernel{
		RBF{Gamma: 1.0 / 400},
		Linear{},
		Poly{Gamma: 0.01, Coef0: 1, Degree: 3},
	} {
		for _, workers := range []int{1, 2} {
			src := newSparseColSource(samples, kernel, workers)
			if len(src.members) >= src.distinct()/10 {
				t.Fatalf("%d shapes over %d groups: the corpus does not exercise plans", len(src.members), src.distinct())
			}
			dst := make([]float64, src.distinct())
			split := false
			for g := 0; g < src.distinct(); g += 7 {
				src.fill(g, dst)
				split = split || len(src.bounds) > 2
				checkColumn(t, kernel.String(), src, g, dst)
			}
			if want := workers > 1; split != want {
				t.Fatalf("%s at %d workers: fills split across workers = %v, want %v", kernel, workers, split, want)
			}
		}
	}
}

// TestPlannedFillSingletonAndUserKernel: a shape with a single pending
// member and every cell of a kernel outside RBF/Linear/Poly take the
// per-cell merge, and fills stay exact.
func TestPlannedFillSingletonAndUserKernel(t *testing.T) {
	rng := randx.New(72)
	samples := shapedCorpus(rng, 200, 120, 2, 4)
	src := newSparseColSource(samples, RBF{Gamma: 0.02}, 1)
	dst := make([]float64, src.distinct())
	src.fill(0, dst)
	checkColumn(t, "rbf", src, 0, dst)
	var singles, planned int
	for _, tk := range src.tasks {
		if tk.hi-tk.lo == 1 {
			singles++
			if tk.planned {
				t.Fatalf("singleton shape %d was planned", tk.shape)
			}
		} else if tk.planned {
			planned++
		}
	}
	if singles < 4 || planned == 0 {
		t.Fatalf("%d singleton and %d planned tasks; want at least 4 and 1", singles, planned)
	}

	var evals atomic.Int64
	user := newSparseColSource(samples, countingKernel{RBF{Gamma: 0.02}, &evals}, 2)
	user.fill(0, dst)
	if got := evals.Load(); got != int64(user.distinct()) {
		t.Fatalf("user kernel: %d EvalSparse calls for %d groups, want one per group", got, user.distinct())
	}
	checkColumn(t, "user kernel", src, 0, dst)
}

// TestFillTailGrowsAndOpensShapes: after extendTo both adds members to old
// shapes and opens new ones, extending a cached column to the grown group
// count equals a fresh fill over the full batch, and the per-cell merge,
// bit for bit, on one worker and on two.
func TestFillTailGrowsAndOpensShapes(t *testing.T) {
	rng := randx.New(73)
	prefix := shapedCorpus(rng, 200, 500, 3, 0)
	tail := shapedCorpus(rng, 1000, 500, 4, 5)
	// Half the tail reuses the prefix's index lists, so old shapes grow.
	for i := 0; i < len(tail); i += 2 {
		p := prefix[rng.Intn(len(prefix))]
		v := make([]float64, len(p.Val))
		for k := range v {
			v[k] = float64(1+rng.Intn(9)) / 3
		}
		tail[i] = stats.Sparse{Idx: p.Idx, Val: v, Dim: p.Dim}
	}
	full := append(append([]stats.Sparse(nil), prefix...), tail...)
	kernel := RBF{Gamma: 1.0 / 500}
	fresh := newSparseColSource(full, kernel, 1)
	want := make([]float64, fresh.distinct())
	for _, workers := range []int{1, 2} {
		src := newSparseColSource(prefix, kernel, workers)
		cache := newColCache(src, 1<<30)
		oldShapes := len(src.members)
		oldMembers := make([]int, oldShapes)
		for sh, m := range src.members {
			oldMembers[sh] = len(m)
		}
		for g := 0; g < src.distinct(); g++ {
			cache.col(g)
		}
		src.extendTo(full)
		cache.grow(1 << 30)
		if len(src.members) <= oldShapes {
			t.Fatalf("tail opened no shapes (%d before, %d after)", oldShapes, len(src.members))
		}
		grown := 0
		for sh := 0; sh < oldShapes; sh++ {
			if len(src.members[sh]) > oldMembers[sh] {
				grown++
			}
		}
		if grown == 0 {
			t.Fatal("tail grew no old shape")
		}
		split := false
		for k := 0; k < len(prefix); k += 3 {
			key := src.group[k]
			got := cache.col(key)
			split = split || len(src.bounds) > 2
			checkColumn(t, "extended", src, key, got)
			fresh.fill(key, want)
			for b := range want {
				if !sameCell(got[b], want[b]) {
					t.Fatalf("workers %d column %d group %d: extended %v, fresh %v", workers, key, b, got[b], want[b])
				}
			}
		}
		if want := workers > 1; split != want {
			t.Fatalf("at %d workers: tail fills split across workers = %v, want %v", workers, split, want)
		}
	}
}

// TestCarriedRefitColumnsExact: a carried (warm) refit evaluates kernel
// cells exactly as a cold solve does, so every column its cache holds —
// complete, or extended on first touch — equals a fresh fill over the
// grown batch bit for bit.
func TestCarriedRefitColumnsExact(t *testing.T) {
	rng := randx.New(74)
	full := shapedCorpus(rng, 1200, 300, 4, 6)
	kernel := RBF{Gamma: 1.0 / 300}
	inc := NewIncremental(Config{Nu: 0.1, Kernel: kernel, Parallelism: 2, CacheBytes: 1 << 30})
	if _, err := inc.Refit(full[:500], false); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Refit(full, true); err != nil {
		t.Fatal(err)
	}
	if inc.Rebuilds != 1 {
		t.Fatalf("%d rebuilds, want 1: the second refit must carry state", inc.Rebuilds)
	}
	inc.src.extendTo(full) // rebind the released batch; nothing new to absorb
	fresh := newSparseColSource(full, kernel, 1)
	want := make([]float64, fresh.distinct())
	if len(inc.cache.entries) == 0 {
		t.Fatal("no resident columns to check")
	}
	for key, e := range inc.cache.entries {
		if len(e.col) > fresh.distinct() {
			t.Fatalf("resident column %d holds %d cells for %d groups", key, len(e.col), fresh.distinct())
		}
		got := inc.cache.col(key)
		checkColumn(t, "carried", inc.src, key, got)
		fresh.fill(key, want)
		for b := range want {
			if !sameCell(got[b], want[b]) {
				t.Fatalf("column %d group %d: carried %v, fresh %v", key, b, got[b], want[b])
			}
		}
	}
}

// TestColumnMissAllocatesNothing pins the scratch reuse of planned fills:
// once warm, a cache miss (a full column fill, plans and tasks included)
// allocates nothing on one worker, and when split across two only the
// hand-off to the one spawned goroutine, however many shapes and tasks.
func TestColumnMissAllocatesNothing(t *testing.T) {
	rng := randx.New(75)
	samples := shapedCorpus(rng, 1500, 500, 6, 3)
	for _, c := range []struct {
		workers int
		max     float64
	}{{1, 0}, {2, 1}} {
		src := newSparseColSource(samples, RBF{Gamma: 1.0 / 500}, c.workers)
		cache := newColCache(src, 0) // two resident columns: cycling three misses every time
		next := 0
		miss := func() {
			cache.col(next % 3 * (src.distinct() / 3))
			next++
		}
		for i := 0; i < 6; i++ {
			miss()
		}
		before := cache.misses
		allocs := testing.AllocsPerRun(30, miss)
		if cache.misses-before < 30 {
			t.Fatalf("%d misses over 31 calls; the pin is not measuring misses", cache.misses-before)
		}
		if c.workers > 1 && len(src.bounds) < 3 {
			t.Fatal("fills did not split across workers")
		}
		for key, e := range cache.entries {
			if len(e.col) != src.distinct() {
				t.Fatalf("resident column %d holds %d cells, want one per group (%d)", key, len(e.col), src.distinct())
			}
		}
		if allocs > c.max {
			t.Fatalf("workers %d: %v allocations per miss, want at most %v", c.workers, allocs, c.max)
		}
	}
}
