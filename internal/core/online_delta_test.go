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
// bitwise-stable bounds for every event type — the delta-replay regime.
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
// must replay in full and rescale, and the refits after that are deltas
// again.
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

// TestOnlineMinerDeltaReplayCounters is the delta-replay proof: with stable
// bounds, refit k decodes only the blocks appended since refit k-1 and
// serves everything earlier from the resident scaled samples — asserted via
// the replay counters, in both spill modes, with the final ranking still
// bit-identical to one-shot MineBatches.
func TestOnlineMinerDeltaReplayCounters(t *testing.T) {
	const nBatches, perBatch = 6, 5
	for _, tc := range []struct {
		label string
		spill bool
	}{{"mem", false}, {"disk", true}} {
		var seen []*OnlineRanking
		cfg := OnlineConfig{
			Config:       Config{IRQ: 1},
			RefitEvery:   1,
			TopK:         3,
			SpillBlock:   1 << 10, // larger than any batch: one flushed block per refit
			SpillCompact: -1,
			OnRanking:    func(r *OnlineRanking) { seen = append(seen, r) },
		}
		if tc.spill {
			cfg.SpillDir = t.TempDir()
		}
		m, err := NewOnlineMiner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batches := stableBatches(nBatches, perBatch, 1)
		first := len(batches[0].Intervals)
		for _, b := range batches {
			if err := m.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		if len(seen) != nBatches {
			t.Fatalf("%s: %d refits, want %d", tc.label, len(seen), nBatches)
		}
		for i, r := range seen {
			if r.SpilledBlocks != i+1 {
				t.Fatalf("%s: refit %d sees %d spilled blocks, want %d", tc.label, r.Refit, r.SpilledBlocks, i+1)
			}
			if tc.spill == (r.SpilledBytes == 0) {
				t.Fatalf("%s: refit %d spilled bytes %d", tc.label, r.Refit, r.SpilledBytes)
			}
			if i == 0 {
				if r.Delta {
					t.Fatalf("%s: first refit claims delta replay", tc.label)
				}
				if r.BlocksDecoded != 1 || r.BlocksSkipped != 0 || r.SamplesReplayed != first {
					t.Fatalf("%s: first refit decoded=%d skipped=%d replayed=%d",
						tc.label, r.BlocksDecoded, r.BlocksSkipped, r.SamplesReplayed)
				}
				continue
			}
			if !r.Delta {
				t.Fatalf("%s: refit %d not delta despite stable bounds", tc.label, r.Refit)
			}
			if r.BlocksSkipped != i || r.BlocksDecoded != 1 {
				t.Fatalf("%s: refit %d decoded=%d skipped=%d, want 1/%d",
					tc.label, r.Refit, r.BlocksDecoded, r.BlocksSkipped, i)
			}
			if r.SamplesReplayed != perBatch {
				t.Fatalf("%s: refit %d replayed %d samples, want only the appended %d",
					tc.label, r.Refit, r.SamplesReplayed, perBatch)
			}
		}
		got, err := m.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		want, err := MineBatches(stableBatches(nBatches, perBatch, 1), Config{IRQ: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, tc.label+"/delta", want, got)
	}
}

// TestOnlineMinerFullReplayMatchesDelta: after every delta refit, each
// event type's resident scaled samples must be bitwise equal to a fresh
// rescale of the whole spill — resident-sample reuse changes the work,
// never the numbers. The stream widens the scale bounds midway, so the
// deltas after an in-place rescale are checked too, in both spill modes
// and with blocks that straddle the cursor after compaction.
func TestOnlineMinerFullReplayMatchesDelta(t *testing.T) {
	build := func() []Batch { return widenedBatches(8, 5, 1, 2) }
	for _, tc := range []struct {
		label          string
		spill          bool
		block, compact int
	}{
		{"mem", false, 0, 0},
		{"disk-multiblock", true, 4, -1},
		{"disk-compacted", true, 1 << 10, 2},
	} {
		var m *OnlineMiner
		var deltas, full int
		cfg := OnlineConfig{
			Config:       Config{IRQ: 1},
			IRQs:         []int{2},
			RefitEvery:   1,
			SpillBlock:   tc.block,
			SpillCompact: tc.compact,
			OnRanking: func(r *OnlineRanking) {
				if !r.Delta {
					full++
					return
				}
				deltas++
				want := rescaledSpill(t, m, r.IRQ)
				got := m.states[r.IRQ].scaled
				if len(got) != len(want) {
					t.Fatalf("%s: refit %d irq %d: %d resident samples, spill holds %d", tc.label, r.Refit, r.IRQ, len(got), len(want))
				}
				for i := range want {
					if !sparseBitsEqual(got[i], want[i]) {
						t.Fatalf("%s: refit %d irq %d: resident sample %d %+v, fresh rescale %+v", tc.label, r.Refit, r.IRQ, i, got[i], want[i])
					}
				}
			},
		}
		if tc.spill {
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
		// batch replay in full; the other six are deltas.
		if full != 4 || deltas != 12 {
			t.Fatalf("%s: %d full and %d delta rankings, want 4 and 12", tc.label, full, deltas)
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
			sameRanking(t, fmt.Sprintf("%s/irq%d", tc.label, irq), want, all[irq])
		}
	}
}

// rescaledSpill decodes every spilled sample of one event type and scales
// the copies with feature.Scale01Sparse over that whole set — the full
// replay a refit would run from scratch.
func rescaledSpill(t *testing.T, m *OnlineMiner, irq int) []stats.Sparse {
	t.Helper()
	var out []stats.Sparse
	_, _, err := m.store.replayFrom(0, func(_ int, meta [][]int64, cnt []stats.Sparse) error {
		for i, c := range cnt {
			if int(meta[i][1]) == irq {
				out = append(out, stats.Sparse{
					Idx: append([]int32(nil), c.Idx...),
					Val: append([]float64(nil), c.Val...),
					Dim: c.Dim,
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	feature.Scale01Sparse(out)
	return out
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
// bound invalidates every resident scaled sample, so the refit must fall
// back to a full replay — no block may be skipped.
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
			t.Fatalf("refit %d claims delta replay despite moved bounds", r.Refit)
		}
		if r.BlocksSkipped != 0 || r.BlocksDecoded != r.SpilledBlocks {
			t.Fatalf("refit %d decoded=%d skipped=%d of %d blocks",
				r.Refit, r.BlocksDecoded, r.BlocksSkipped, r.SpilledBlocks)
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

// TestOnlineMinerCompactionDeltaEquivalence: aggressive tiny-block
// compaction keeps merging the trailing run into one block, so delta refits
// decode a block that straddles the cursor — the resident prefix inside it
// must be skipped sample-by-sample, and the final ranking must not move.
func TestOnlineMinerCompactionDeltaEquivalence(t *testing.T) {
	const nBatches, perBatch = 8, 4
	var seen []*OnlineRanking
	m, err := NewOnlineMiner(OnlineConfig{
		Config:       Config{IRQ: 1},
		RefitEvery:   1,
		TopK:         3,
		SpillDir:     t.TempDir(),
		SpillBlock:   1 << 10, // every refit flush is undersized
		SpillCompact: 2,
		OnRanking:    func(r *OnlineRanking) { seen = append(seen, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := stableBatches(nBatches, perBatch, 1)
	first := len(batches[0].Intervals)
	for _, b := range batches {
		if err := m.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != nBatches {
		t.Fatalf("%d refits, want %d", len(seen), nBatches)
	}
	for i, r := range seen {
		if r.Compactions != i {
			t.Fatalf("refit %d: %d compactions, want %d", r.Refit, r.Compactions, i)
		}
		if r.SpilledBlocks != 1 {
			t.Fatalf("refit %d: %d live blocks, want the merged 1", r.Refit, r.SpilledBlocks)
		}
		if i == 0 {
			continue
		}
		if !r.Delta {
			t.Fatalf("refit %d not delta despite stable bounds", r.Refit)
		}
		// The merged block straddles the cursor: decoded, never skipped, and
		// it carries every sample so far.
		if r.BlocksDecoded != 1 || r.BlocksSkipped != 0 {
			t.Fatalf("refit %d decoded=%d skipped=%d", r.Refit, r.BlocksDecoded, r.BlocksSkipped)
		}
		if want := first + i*perBatch; r.SamplesReplayed != want {
			t.Fatalf("refit %d replayed %d samples, want %d", r.Refit, r.SamplesReplayed, want)
		}
	}
	got, err := m.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := MineBatches(stableBatches(nBatches, perBatch, 1), Config{IRQ: 1})
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "compacted", want, got)
}

// TestOnlineMinerMultiIRQFinalizeAll: one incremental detector per event
// type over a single shared spill, each final ranking bit-identical to
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
			cfg.SpillBlock = 5
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
