package core

import (
	"fmt"
	"math"
	"testing"

	"sentomist/internal/feature"
	"sentomist/internal/randx"
	"sentomist/internal/stats"
)

// stableBatches builds nBatches synthetic batches over `irqs` whose scale
// bounds are fully pinned by the first batch: per event type, one sample
// holds every dimension at the global maximum and one sample is empty (so
// every dimension carries an implicit zero), and every later sample stays
// strictly inside those bounds. Every refit after the first therefore sees
// bitwise-stable bounds for every event type — the delta regime.
func stableBatches(nBatches, perBatch int, irqs ...int) []Batch {
	const dim = 6
	rng := randx.New(23)
	sample := func() stats.Sparse {
		s := stats.Sparse{Dim: dim}
		for d := 0; d < dim; d++ {
			if rng.Intn(3) == 0 {
				continue
			}
			s.Idx = append(s.Idx, int32(d))
			s.Val = append(s.Val, float64(1+rng.Intn(8)))
		}
		return s
	}
	var out []Batch
	seq := 0
	for bi := 0; bi < nBatches; bi++ {
		b := Batch{Run: bi + 1}
		add := func(irq int, c stats.Sparse) {
			seq++
			b.Intervals = append(b.Intervals, completeInterval(irq, seq, 1))
			b.Counters = append(b.Counters, c)
		}
		if bi == 0 {
			for _, irq := range irqs {
				full := stats.Sparse{Dim: dim}
				for d := 0; d < dim; d++ {
					full.Idx = append(full.Idx, int32(d))
					full.Val = append(full.Val, 8)
				}
				add(irq, full)
				add(irq, stats.Sparse{Dim: dim}) // all-absent: pins lo at zero
			}
		}
		for i := 0; i < perBatch; i++ {
			add(irqs[i%len(irqs)], sample())
		}
		out = append(out, b)
	}
	return out
}

// widenedBatches is stableBatches with one more sample per event type in
// batch 4 holding a new maximum in every dimension: the refit after it
// must rescale every distinct counter, and the refits after that are
// deltas again.
func widenedBatches(nBatches, perBatch int, irqs ...int) []Batch {
	bs := stableBatches(nBatches, perBatch, irqs...)
	for _, irq := range irqs {
		wide := stats.Sparse{Dim: 6}
		for d := 0; d < wide.Dim; d++ {
			wide.Idx = append(wide.Idx, int32(d))
			wide.Val = append(wide.Val, 20)
		}
		bs[3].Intervals = append(bs[3].Intervals, completeInterval(irq, 900+irq, 1))
		bs[3].Counters = append(bs[3].Counters, wide)
	}
	return bs
}

// TestOnlineMinerResidentScaledMatchesFresh: after every refit, each
// event type's scaled view — one header per member, pointing at its
// group's resident scaled vector — must be bitwise equal to a fresh
// Scale01Sparse over a copy of every raw counter that event type ingested
// so far. Scaling only the new distinct counters on stable bounds, and
// rescaling all of them in place when a bound moves, changes the work,
// never the numbers. The stream widens the bounds midway, so the deltas
// after an in-place rescale are checked too, in both spill modes.
func TestOnlineMinerResidentScaledMatchesFresh(t *testing.T) {
	build := func() []Batch { return widenedBatches(8, 5, 1, 2) }
	for _, spill := range []bool{false, true} {
		label := map[bool]string{false: "mem", true: "disk"}[spill]
		var m *OnlineMiner
		var deltas, full int
		cfg := OnlineConfig{
			Config:     Config{IRQ: 1},
			IRQs:       []int{2},
			RefitEvery: 1,
			OnRanking: func(r *OnlineRanking) {
				if r.Delta {
					deltas++
					if r.Rebuilt {
						t.Fatalf("%s: delta refit %d irq %d rebuilt its kernel cache", label, r.Refit, r.IRQ)
					}
				} else {
					full++
				}
				want := freshScaled(build()[:r.Batches], r.IRQ)
				st := m.states[r.IRQ]
				if len(st.scaled) != len(st.raw) {
					t.Fatalf("%s: refit %d irq %d: %d scaled vectors for %d distinct counters", label, r.Refit, r.IRQ, len(st.scaled), len(st.raw))
				}
				if len(st.view) != len(want) {
					t.Fatalf("%s: refit %d irq %d: %d members in the view, ingested %d", label, r.Refit, r.IRQ, len(st.view), len(want))
				}
				for i := range want {
					if !sparseBitsEqual(st.view[i], want[i]) || !sparseBitsEqual(st.scaled[st.group[i]], want[i]) {
						t.Fatalf("%s: refit %d irq %d: member %d scaled %+v, fresh scale %+v", label, r.Refit, r.IRQ, i, st.view[i], want[i])
					}
				}
			},
		}
		if spill {
			cfg.SpillDir = t.TempDir()
		}
		var err error
		if m, err = NewOnlineMiner(cfg); err != nil {
			t.Fatal(err)
		}
		for _, b := range build() {
			if err := m.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		// Per event type: the first refit and the one after the widening
		// batch rescale everything; the other six are deltas.
		if full != 4 || deltas != 12 {
			t.Fatalf("%s: %d full and %d delta rankings, want 4 and 12", label, full, deltas)
		}
		all, err := m.FinalizeAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, irq := range []int{1, 2} {
			want, err := MineBatches(build(), Config{IRQ: irq})
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, fmt.Sprintf("%s/irq%d", label, irq), want, all[irq])
		}
	}
}

// freshScaled copies every complete counter of one event type out of the
// batches, in order, and scales the copies with feature.Scale01Sparse over
// that whole set — what a refit would train on if it rescaled everything
// from scratch.
func freshScaled(batches []Batch, irq int) []stats.Sparse {
	var out []stats.Sparse
	for _, b := range batches {
		for i, iv := range b.Intervals {
			if iv.IRQ != irq || !iv.Complete {
				continue
			}
			c := b.Counters[i]
			out = append(out, stats.Sparse{
				Idx: append([]int32(nil), c.Idx...),
				Val: append([]float64(nil), c.Val...),
				Dim: c.Dim,
			})
		}
	}
	feature.Scale01Sparse(out)
	return out
}

// TestOnlineMinerStoresEachDistinctCounterOnce: a stream of many intervals
// over a few distinct counters — ±0 and an empty counter among them — must
// leave exactly one raw and one scaled vector per distinct counter
// (bitwise, so +0 and -0 count apart), one group id per interval, and a
// final ranking bit-identical to MineBatches.
func TestOnlineMinerStoresEachDistinctCounterOnce(t *testing.T) {
	const dim, l = 8, 300
	negZero := math.Copysign(0, -1)
	distinct := []stats.Sparse{
		{Idx: []int32{0, 3}, Val: []float64{4, 1}, Dim: dim},
		{Idx: []int32{0, 3}, Val: []float64{4, 2}, Dim: dim},
		{Idx: []int32{1, 2, 7}, Val: []float64{1, 1, 9}, Dim: dim},
		{Idx: []int32{5}, Val: []float64{0}, Dim: dim},
		{Idx: []int32{5}, Val: []float64{negZero}, Dim: dim},
		{Dim: dim},
		{Idx: []int32{0, 1, 2, 3, 4, 5, 6, 7}, Val: []float64{1, 2, 3, 4, 5, 6, 7, 8}, Dim: dim},
	}
	build := func() []Batch {
		rng := randx.New(5)
		var out []Batch
		for i := 0; i < l; i++ {
			if i%25 == 0 {
				out = append(out, Batch{Run: len(out) + 1})
			}
			b := &out[len(out)-1]
			c := distinct[rng.Intn(len(distinct))]
			if i < len(distinct) {
				c = distinct[i] // every counter appears at least once
			}
			b.Intervals = append(b.Intervals, completeInterval(1, i, 1))
			b.Counters = append(b.Counters, stats.Sparse{
				Idx: append([]int32(nil), c.Idx...),
				Val: append([]float64(nil), c.Val...),
				Dim: c.Dim,
			})
		}
		return out
	}
	for _, refitEvery := range []int{0, 3} {
		m, err := NewOnlineMiner(OnlineConfig{Config: Config{IRQ: 1}, RefitEvery: refitEvery})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range build() {
			if err := m.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		st := m.states[1]
		if refitEvery == 0 {
			st.effectiveScale()
			st.rescale(&m.rawBuf, m.dim)
		}
		g := len(distinct)
		if len(st.raw) != g || len(st.groupOf) != g || len(st.scaled) != g {
			t.Fatalf("refit every %d: %d raw, %d keyed and %d scaled vectors, want %d each",
				refitEvery, len(st.raw), len(st.groupOf), len(st.scaled), g)
		}
		if len(st.group) != l || len(st.row) != l || len(st.view) != l {
			t.Fatalf("refit every %d: %d group ids, %d rows, %d view entries, want %d each",
				refitEvery, len(st.group), len(st.row), len(st.view), l)
		}
		for gi, key := range st.raw {
			var raw stats.Sparse
			raw.SetKey(key, dim)
			if !sparseBitsEqual(raw, distinct[gi]) {
				t.Fatalf("refit every %d: group %d holds %+v, want first appearance %+v", refitEvery, gi, raw, distinct[gi])
			}
		}
		got, err := m.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		want, err := MineBatches(build(), Config{IRQ: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, fmt.Sprintf("refit-every-%d", refitEvery), want, got)
	}
}

func sparseBitsEqual(a, b stats.Sparse) bool {
	if a.Dim != b.Dim || len(a.Idx) != len(b.Idx) || len(a.Val) != len(b.Val) {
		return false
	}
	for k := range a.Idx {
		if a.Idx[k] != b.Idx[k] || math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// TestOnlineMinerMovedBoundsDisableDelta: a batch that widens any scale
// bound invalidates every resident scaled vector, so the refit must
// rescale everything and rebuild the kernel cache.
func TestOnlineMinerMovedBoundsDisableDelta(t *testing.T) {
	const dim = 4
	mkBatch := func(run int, peak float64) Batch {
		b := Batch{Run: run}
		for i := 0; i < 3; i++ {
			b.Intervals = append(b.Intervals, completeInterval(1, run*10+i, 1))
			b.Counters = append(b.Counters, stats.Sparse{
				Idx: []int32{0, 2},
				Val: []float64{peak - float64(i), 1},
				Dim: dim,
			})
		}
		return b
	}
	build := func() []Batch {
		var bs []Batch
		for r := 1; r <= 5; r++ {
			bs = append(bs, mkBatch(r, float64(8+4*r))) // every batch raises dim 0's max
		}
		return bs
	}
	var seen []*OnlineRanking
	m, err := NewOnlineMiner(OnlineConfig{
		Config:     Config{IRQ: 1},
		RefitEvery: 1,
		TopK:       3,
		OnRanking:  func(r *OnlineRanking) { seen = append(seen, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range build() {
		if err := m.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range seen {
		if r.Delta {
			t.Fatalf("refit %d claims stable bounds despite moved bounds", r.Refit)
		}
		if !r.Rebuilt {
			t.Fatalf("refit %d kept its kernel cache despite moved bounds", r.Refit)
		}
	}
	got, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineBatches(build(), Config{IRQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "moved-bounds", want, got)
}

// TestOnlineMinerMultiIRQFinalizeAll: one incremental detector per event
// type over a single shared row log, each final ranking bit-identical to
// one-shot MineBatches with that type as Config.IRQ — in both spill modes
// and with a parallel Gram build.
func TestOnlineMinerMultiIRQFinalizeAll(t *testing.T) {
	build := func() []Batch {
		bs := stableBatches(5, 6, 1, 2)
		last := &bs[len(bs)-1]
		last.Intervals = append(last.Intervals, incompleteInterval(1, 999, 1), incompleteInterval(2, 1000, 1))
		last.Counters = append(last.Counters, stats.Sparse{}, stats.Sparse{})
		return bs
	}
	want := map[int]*Ranking{}
	for _, irq := range []int{1, 2} {
		r, err := MineBatches(build(), Config{IRQ: irq})
		if err != nil {
			t.Fatal(err)
		}
		want[irq] = r
	}
	for _, tc := range []struct {
		label   string
		spill   bool
		workers int
	}{{"mem", false, 1}, {"disk", true, 3}} {
		var published []int
		cfg := OnlineConfig{
			Config:     Config{IRQ: 1, Parallelism: tc.workers},
			IRQs:       []int{2, 2, 1}, // duplicates and the primary collapse
			RefitEvery: 2,
			TopK:       4,
			OnRanking:  func(r *OnlineRanking) { published = append(published, r.IRQ) },
		}
		if tc.spill {
			cfg.SpillDir = t.TempDir()
		}
		m, err := NewOnlineMiner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if irqs := m.IRQs(); len(irqs) != 2 || irqs[0] != 1 || irqs[1] != 2 {
			t.Fatalf("%s: IRQs() = %v, want [1 2]", tc.label, irqs)
		}
		for _, b := range build() {
			if err := m.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		if len(published) == 0 || len(published)%2 != 0 {
			t.Fatalf("%s: %d published rankings, want pairs", tc.label, len(published))
		}
		for i := 0; i < len(published); i += 2 {
			if published[i] != 1 || published[i+1] != 2 {
				t.Fatalf("%s: refits published IRQ order %v, want primary first", tc.label, published)
			}
		}
		all, err := m.FinalizeAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 2 {
			t.Fatalf("%s: FinalizeAll returned %d rankings, want 2", tc.label, len(all))
		}
		sameRanking(t, tc.label+"/irq1", want[1], all[1])
		sameRanking(t, tc.label+"/irq2", want[2], all[2])
	}
}

// TestOnlineMinerMultiIRQValidation pins the IRQ-set construction rules and
// the silent-type behavior of FinalizeAll.
func TestOnlineMinerMultiIRQValidation(t *testing.T) {
	if _, err := NewOnlineMiner(OnlineConfig{IRQs: []int{0}}); err == nil {
		t.Fatal("event type 0 accepted in the IRQ set")
	}
	m, err := NewOnlineMiner(OnlineConfig{IRQs: []int{3, 3, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.IRQs(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("IRQs() = %v, want deduped [3 5]", got)
	}
	m.Close()

	// An event type that never scored an interval is absent from the map.
	m2, err := NewOnlineMiner(OnlineConfig{Config: Config{IRQ: 1}, IRQs: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stableBatches(2, 3, 1) {
		if err := m2.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	all, err := m2.FinalizeAll()
	if err != nil {
		t.Fatal(err)
	}
	if all[1] == nil {
		t.Fatal("mined event type missing from FinalizeAll")
	}
	if _, ok := all[7]; ok {
		t.Fatal("interval-less event type present in FinalizeAll")
	}
}
