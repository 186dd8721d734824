package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"

	"sentomist/internal/feature"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
	"sentomist/internal/stats"
	"sentomist/internal/svm"
	"sentomist/internal/trace"
)

// OnlineConfig parameterizes an OnlineMiner. The embedded Config supplies
// the filter and detector knobs MineBatches reads; Detector must be nil —
// online mining drives the incremental one-class SVM directly, which is
// what lets every refit carry its dedup state and kernel columns over.
type OnlineConfig struct {
	Config

	// IRQs names additional event types to mine alongside Config.IRQ: the
	// miner runs one incremental solver per event type over the single
	// shared arrival stream, and every refit publishes one ranking per
	// type. Config.IRQ (when nonzero) is the primary — the type Finalize
	// returns — and is mined whether or not it is listed here. With an
	// empty IRQs the miner behaves exactly as single-IRQ.
	IRQs []int
	// RefitEvery refits the detectors after every N ingested batches and
	// publishes intermediate rankings; 0 disables intermediate refits
	// (only Finalize scores). Every refit is an exact cold solve, so each
	// intermediate ranking is the head of MineBatches over the batches
	// ingested so far, bit for bit.
	RefitEvery int
	// TopK bounds intermediate rankings to the K most suspicious
	// intervals (default 100). Finalize always returns the full ranking.
	TopK int
	// SpillDir, when set, keeps the intervals' metadata rows in a private
	// temporary file in that directory (created if missing; the file is
	// removed on Close) instead of in memory. Counters never spill: each
	// event type holds every distinct raw counter once, and intervals of
	// one event procedure repeat a few code paths, so a row is the only
	// per-interval payload. Results are identical either way.
	SpillDir string
	// OnRanking, when set, receives every intermediate ranking (one per
	// mined event type per refit, in deterministic IRQ order).
	OnRanking func(*OnlineRanking)
}

// OnlineRanking is one intermediate refit's output for one event type: the
// top-K most suspicious intervals so far, with refit provenance and store
// observability.
type OnlineRanking struct {
	// IRQ is the event type this ranking covers.
	IRQ int
	// Refit is the 1-based refit sequence number for this event type.
	Refit int
	// Batches is how many batches had been ingested when this refit ran.
	// Total and Excluded are the scored and dropped-incomplete interval
	// counts for this event type.
	Batches, Total, Excluded int
	// Samples holds the K most suspicious intervals, ascending by
	// (normalized score, ingest position): the first K rows of MineBatches
	// over the batches ingested so far, every score bit for bit.
	Samples []Sample
	// Deprecated: always false since every refit became a cold solve. The
	// next benchmark change drops this field.
	Warm bool
	// Rebuilt reports whether the kernel cache had to be discarded because
	// the effective feature scale moved. Iters/CacheHits/CacheMisses are
	// the refit's solver diagnostics; Groups is how many distinct counters
	// the solver iterated over (at most Total), a deterministic counter
	// like Iters.
	Rebuilt     bool
	Iters       int
	Groups      int
	CacheHits   int64
	CacheMisses int64
	// Delta reports whether every mined event type's scale bounds were
	// bitwise-stable since the previous refit: only the distinct counters
	// that arrived since were scaled, and the kernel caches were kept.
	Delta bool
	// SpilledBytes is the size of the row file (0 without SpillDir).
	SpilledBytes int64
	// Deprecated: always zero since the counter store became
	// content-addressed (there are no blocks to decode, replay or
	// compact). The next benchmark change drops these fields.
	SpilledBlocks, BlocksDecoded, BlocksSkipped, SamplesReplayed, Compactions int
}

// rowFields is the width of a metadata row in int64s: the sample's run
// index plus every lifecycle.Interval field, so a ranking read back from
// rows labels and sorts exactly like one mined from live batches.
const (
	rowFields = 13
	rowBytes  = 8 * rowFields
)

func appendRow(dst []byte, run int, iv lifecycle.Interval) []byte {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	for _, v := range [rowFields]int64{
		int64(run), int64(iv.IRQ), int64(iv.Seq), int64(iv.Node),
		int64(iv.StartItem), int64(iv.EndItem),
		int64(iv.StartMarker), int64(iv.EndMarker),
		int64(iv.StartCycle), int64(iv.EndCycle),
		b2i(iv.EndsWithTask), b2i(iv.Complete), int64(iv.Truth),
	} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

func decodeRow(b []byte) Sample {
	var f [rowFields]int64
	for i := range f {
		f[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return Sample{
		Run: int(f[0]),
		Interval: lifecycle.Interval{
			IRQ: int(f[1]), Seq: int(f[2]), Node: int(f[3]),
			StartItem: int(f[4]), EndItem: int(f[5]),
			StartMarker: int(f[6]), EndMarker: int(f[7]),
			StartCycle: uint64(f[8]), EndCycle: uint64(f[9]),
			EndsWithTask: f[10] != 0, Complete: f[11] != 0,
			Truth: int(f[12]),
		},
	}
}

// rowFlushBytes is how many buffered row bytes the row log writes out at
// once when it has a file.
const rowFlushBytes = 64 << 10

// rowLog is the append-only log of every kept interval's metadata row, in
// ingest order and fixed width, so row k sits at byte k·rowBytes. Rows
// [0, written/rowBytes) are in the file and the rest in buf; without a
// file nothing is ever written out and buf holds every row. Either way a
// row is read by the same decode, from whichever side holds it.
type rowLog struct {
	f       *os.File
	buf     []byte
	written int64
	n       int
}

func newRowLog(dir string) (*rowLog, error) {
	if dir == "" {
		return &rowLog{}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create spill dir: %w", err)
	}
	f, err := os.CreateTemp(dir, "sentomist-rows-*")
	if err != nil {
		return nil, fmt.Errorf("core: create spill: %w", err)
	}
	return &rowLog{f: f}, nil
}

func (r *rowLog) append(run int, iv lifecycle.Interval) {
	r.buf = appendRow(r.buf, run, iv)
	r.n++
}

// flush writes the buffered rows to the file once they reach
// rowFlushBytes.
func (r *rowLog) flush() error {
	if r.f == nil || len(r.buf) < rowFlushBytes {
		return nil
	}
	if _, err := r.f.Write(r.buf); err != nil {
		return fmt.Errorf("core: write spill: %w", err)
	}
	r.written += int64(len(r.buf))
	r.buf = r.buf[:0]
	return nil
}

// read decodes row ord, reading it from the file with ReadAt when it was
// written out.
func (r *rowLog) read(ord int) (Sample, error) {
	off := int64(ord) * rowBytes
	if off >= r.written {
		return decodeRow(r.buf[off-r.written:]), nil
	}
	var row [rowBytes]byte
	if _, err := r.f.ReadAt(row[:], off); err != nil {
		return Sample{}, fmt.Errorf("core: read spill: %w", err)
	}
	return decodeRow(row[:]), nil
}

// scan decodes every row in order.
func (r *rowLog) scan(fn func(Sample)) error {
	chunk := make([]byte, min(r.written, rowFlushBytes/rowBytes*rowBytes))
	for off := int64(0); off < r.written; off += int64(len(chunk)) {
		part := chunk[:min(int64(len(chunk)), r.written-off)]
		if _, err := r.f.ReadAt(part, off); err != nil {
			return fmt.Errorf("core: read spill: %w", err)
		}
		for p := 0; p < len(part); p += rowBytes {
			fn(decodeRow(part[p:]))
		}
	}
	for p := 0; p < len(r.buf); p += rowBytes {
		fn(decodeRow(r.buf[p:]))
	}
	return nil
}

// bytes is the size of the row file: every row once it is written out, 0
// without a file.
func (r *rowLog) bytes() int64 {
	if r.f == nil {
		return 0
	}
	return int64(r.n) * rowBytes
}

func (r *rowLog) close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	if rmErr := os.Remove(r.f.Name()); err == nil {
		err = rmErr
	}
	return err
}

// irqState is one event type's mining state: a content-addressed store of
// its counters, streaming scale statistics over them, the scaled vectors
// the solver trains on, the incremental solver that carries its dedup
// state and kernel columns across refits, and the last refit's scores.
//
// The store keeps each distinct raw counter once, as its stats.AppendKey
// bytes, with groups numbered in first-appearance order; the kept
// intervals (members) hold only a group id and their row ordinal. That is
// exact for scaling: per dimension, the min, the max and "some sample
// lacks it" over the distinct counters equal those over all members, and
// a repeated counter can never update a running min or max, so the bounds
// match Scale01Sparse over every member bit for bit.
type irqState struct {
	irq      int
	excluded int
	groupOf  map[string]int32 // raw counter key -> group
	raw      []string         // group -> raw counter key
	group    []int32          // member -> group
	row      []int32          // member -> ordinal in the shared row log
	// Per-dimension min/max of the distinct counters' stored values, and
	// how many distinct counters store the dimension.
	lo, hi  []float64
	present []int
	// scaled holds one scaled vector per group under the bounds of the
	// last refit; view is the member-length header slice the solver trains
	// on, view[i] == scaled[group[i]].
	scaled         []stats.Sparse
	view           []stats.Sparse
	prevLo, prevHi []float64
	inc            *svm.Incremental
	refits         int
	// scores are the normalized scores of the last solve, one per member
	// it saw; scored is that member count.
	scores []float64
	scored int
	// Per-refit scratch: the effective bounds for this refit and whether
	// they match the previous refit's bitwise.
	curLo, curHi []float64
	stable       bool
}

// add files one kept counter under its group, opening a group (and
// folding the counter into the scale statistics) the first time its
// content appears. key is the counter's stats.AppendKey.
func (st *irqState) add(c stats.Sparse, key []byte, dim, row int) {
	g, ok := st.groupOf[string(key)]
	if !ok {
		if st.lo == nil {
			st.initDims(dim)
		}
		g = int32(len(st.raw))
		k := string(key)
		st.groupOf[k] = g
		st.raw = append(st.raw, k)
		for i, d := range c.Idx {
			v := c.Val[i]
			if v < st.lo[d] {
				st.lo[d] = v
			}
			if v > st.hi[d] {
				st.hi[d] = v
			}
			st.present[d]++
		}
	}
	st.group = append(st.group, g)
	st.row = append(st.row, int32(row))
}

// initDims allocates the state's streaming statistics at its first sample.
func (st *irqState) initDims(dim int) {
	st.lo = make([]float64, dim)
	st.hi = make([]float64, dim)
	st.present = make([]int, dim)
	for d := range st.lo {
		st.lo[d] = math.Inf(1)
		st.hi[d] = math.Inf(-1)
	}
}

// effectiveScale derives into curLo/curHi the [0,1]-scaling bounds
// Scale01Sparse would compute over this event type's full ingested batch,
// from the streaming statistics. The scratch slices are reused across
// refits.
func (st *irqState) effectiveScale() {
	st.curLo = append(st.curLo[:0], st.lo...)
	st.curHi = append(st.curHi[:0], st.hi...)
	for d := range st.curLo {
		if st.present[d] < len(st.raw) {
			// Some sample holds an implicit zero here.
			if st.curLo[d] > 0 || st.present[d] == 0 {
				st.curLo[d] = 0
			}
			if st.curHi[d] < 0 || st.present[d] == 0 {
				st.curHi[d] = 0
			}
		}
	}
	st.stable = st.prevLo != nil && float64sEqual(st.curLo, st.prevLo) && float64sEqual(st.curHi, st.prevHi)
}

// rescale brings scaled and view up to date with curLo/curHi. With stable
// bounds only the groups and members that arrived since the previous
// refit are scaled and appended; otherwise every group is rescaled in
// place and the view rebuilt. raw is scratch for decoding keys.
func (st *irqState) rescale(raw *stats.Sparse, dim int) {
	if !st.stable {
		for g := range st.scaled {
			raw.SetKey(st.raw[g], dim)
			scaleInto(&st.scaled[g], *raw, st.curLo, st.curHi)
		}
		st.view = st.view[:0]
	}
	for g := len(st.scaled); g < len(st.raw); g++ {
		raw.SetKey(st.raw[g], dim)
		st.scaled = append(st.scaled, scaleWith(*raw, st.curLo, st.curHi))
	}
	for _, g := range st.group[len(st.view):] {
		st.view = append(st.view, st.scaled[g])
	}
}

// OnlineMiner is the streaming counterpart of MineBatches: batches are
// ingested as their runs finish, one detector per event type is refit
// periodically (svm.Incremental), and intermediate top-K rankings are
// published along the way. Each event type stores every distinct raw
// counter once and scales it once per refit at most: a refit whose scale
// bounds are bitwise-unchanged scales only the counters that arrived since
// the previous one. Every refit is an exact cold solve over the carried
// dedup state and kernel columns, so each published top-K is the head of
// one-shot MineBatches over the batches ingested so far, bit for bit, and
// Finalize publishes the last refit's scores when no rows arrived since —
// bit-identical to MineBatches over the same batches in the same order at
// any refit cadence, spill mode, worker count, or IRQ set.
type OnlineMiner struct {
	cfg     OnlineConfig
	labels  LabelStyle
	allowed map[int]bool
	rows    *rowLog

	irqs    []int // deterministic publish order; irqs[0] is the primary
	states  map[int]*irqState
	dim     int
	dimSet  bool
	batches int
	pending int // batches since the last refit

	keyBuf []byte       // scratch for counter keys
	rawBuf stats.Sparse // scratch for decoded raw counters

	last   *OnlineRanking // primary event type's latest ranking
	closed bool
}

// NewOnlineMiner validates the config and opens the row log.
func NewOnlineMiner(cfg OnlineConfig) (*OnlineMiner, error) {
	if cfg.IRQ == 0 && len(cfg.IRQs) == 0 {
		return nil, fmt.Errorf("core: config must name the IRQ to mine")
	}
	if cfg.Detector != nil {
		return nil, fmt.Errorf("core: online mining drives the incremental one-class SVM; Detector must be nil")
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 100
	}
	labels := cfg.Labels
	if labels == 0 {
		labels = LabelRunSeq
	}
	allowed := map[int]bool{}
	for _, id := range cfg.Nodes {
		allowed[id] = true
	}
	var irqs []int
	states := map[int]*irqState{}
	addIRQ := func(irq int) error {
		if irq == 0 {
			return fmt.Errorf("core: event type 0 is not a minable IRQ")
		}
		if states[irq] != nil {
			return nil
		}
		states[irq] = &irqState{
			irq:     irq,
			groupOf: map[string]int32{},
			inc: svm.NewIncremental(svm.Config{
				Nu:          0.05, // adjusted per refit for the ν ≥ 1/l clamp
				CacheBytes:  cfg.SVMCacheBytes,
				Parallelism: cfg.Parallelism,
			}),
		}
		irqs = append(irqs, irq)
		return nil
	}
	if cfg.IRQ != 0 {
		if err := addIRQ(cfg.IRQ); err != nil {
			return nil, err
		}
	}
	for _, irq := range cfg.IRQs {
		if err := addIRQ(irq); err != nil {
			return nil, err
		}
	}
	rows, err := newRowLog(cfg.SpillDir)
	if err != nil {
		return nil, err
	}
	return &OnlineMiner{
		cfg:     cfg,
		labels:  labels,
		allowed: allowed,
		rows:    rows,
		irqs:    irqs,
		states:  states,
	}, nil
}

// IRQs returns the mined event types in publish order (primary first).
func (m *OnlineMiner) IRQs() []int { return append([]int(nil), m.irqs...) }

// Add ingests one batch: filter (identically to MineBatches per event
// type), file each kept counter in its event type's store, log its row,
// and — every RefitEvery batches — refit every detector and publish
// intermediate rankings. Counters are copied; the caller may reuse the
// batch. A batch rejected as malformed leaves the miner exactly as it was.
func (m *OnlineMiner) Add(b Batch) error {
	if m.closed {
		return fmt.Errorf("core: online miner is closed")
	}
	if err := m.validate(b); err != nil {
		return err
	}
	for i, iv := range b.Intervals {
		st := m.stateFor(iv)
		if st == nil {
			continue
		}
		if !iv.Complete {
			st.excluded++
			continue
		}
		c := b.Counters[i]
		if !m.dimSet {
			m.dim = c.Dim
			m.dimSet = true
		}
		m.keyBuf = stats.AppendKey(m.keyBuf[:0], c)
		st.add(c, m.keyBuf, m.dim, m.rows.n)
		m.rows.append(b.Run, iv)
	}
	if err := m.rows.flush(); err != nil {
		return err
	}
	m.batches++
	m.pending++
	if m.cfg.RefitEvery > 0 && m.pending >= m.cfg.RefitEvery && m.rows.n > 0 {
		m.pending = 0
		if err := m.refitAll(); err != nil {
			return err
		}
	}
	return nil
}

// stateFor returns the mining state an interval feeds, or nil when its
// event type is not mined or its node is filtered out.
func (m *OnlineMiner) stateFor(iv lifecycle.Interval) *irqState {
	if len(m.allowed) > 0 && !m.allowed[iv.Node] {
		return nil
	}
	return m.states[iv.IRQ]
}

// validate checks every counter Add would keep, before Add changes any
// state.
func (m *OnlineMiner) validate(b Batch) error {
	if len(b.Intervals) != len(b.Counters) {
		return fmt.Errorf("core: batch %d has %d intervals but %d counters", m.batches, len(b.Intervals), len(b.Counters))
	}
	dim, dimSet := m.dim, m.dimSet
	kept := m.rows.n
	for i, iv := range b.Intervals {
		if m.stateFor(iv) == nil || !iv.Complete {
			continue
		}
		c := b.Counters[i]
		if !dimSet {
			dim, dimSet = c.Dim, true
		}
		if c.Dim != dim {
			return fmt.Errorf("core: sample %d has %d dims, want %d — runs use different binaries", kept, c.Dim, dim)
		}
		if err := checkCounter(kept, c); err != nil {
			return err
		}
		kept++
	}
	return nil
}

// Last returns the primary event type's most recent intermediate ranking,
// or nil before the first refit.
func (m *OnlineMiner) Last() *OnlineRanking { return m.last }

// scaleWith applies the Scale01Sparse transform with precomputed bounds,
// producing a fresh vector preallocated to the input's stored size (the
// output can only drop cells). Cell arithmetic and zero-dropping match
// Scale01Sparse exactly, so equal bounds yield bitwise-equal scaled
// vectors.
func scaleWith(s stats.Sparse, lo, hi []float64) stats.Sparse {
	out := stats.Sparse{
		Idx: make([]int32, 0, len(s.Idx)),
		Val: make([]float64, 0, len(s.Idx)),
		Dim: s.Dim,
	}
	scaleInto(&out, s, lo, hi)
	return out
}

// scaleInto is scaleWith into a reused destination: dst's backing arrays
// are truncated and refilled, growing only when the input outgrows them.
func scaleInto(dst *stats.Sparse, s stats.Sparse, lo, hi []float64) {
	dst.Idx = dst.Idx[:0]
	dst.Val = dst.Val[:0]
	dst.Dim = s.Dim
	for i, d := range s.Idx {
		span := hi[d] - lo[d]
		if span == 0 {
			continue // constant dimension: scaled value is 0
		}
		v := (s.Val[i] - lo[d]) / span
		if v == 0 {
			continue
		}
		dst.Idx = append(dst.Idx, d)
		dst.Val = append(dst.Val, v)
	}
}

func float64sEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Bitwise comparison: ±Inf sentinels compare equal to themselves,
		// and any numeric drift at all invalidates cached kernel columns.
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// refitAll rescales every event type's store (only the new distinct
// counters when all bounds are stable) and refits its detector,
// publishing one ranking per type in deterministic IRQ order.
func (m *OnlineMiner) refitAll() error {
	delta := true
	for _, irq := range m.irqs {
		st := m.states[irq]
		if len(st.group) == 0 {
			continue
		}
		st.effectiveScale()
		delta = delta && st.stable
	}
	for _, irq := range m.irqs {
		st := m.states[irq]
		if len(st.group) == 0 {
			continue
		}
		r, err := m.refitState(st)
		if err != nil {
			return err
		}
		r.Delta = delta
		r.SpilledBytes = m.rows.bytes()
		if irq == m.irqs[0] {
			m.last = r
		}
		if m.cfg.OnRanking != nil {
			m.cfg.OnRanking(r)
		}
	}
	return nil
}

// score rescales one event type's store and solves it cold over its
// scaled view — the solve MineBatches runs over the same members, with the
// same ν clamp — keeping the normalized scores. Cached kernel columns
// carry over iff the bounds are bitwise unchanged since the previous solve
// (the view's prefix is then bit-identical); they only make the solve
// cheaper, never change it. effectiveScale must have run.
func (m *OnlineMiner) score(st *irqState) (*svm.Model, error) {
	st.rescale(&m.rawBuf, m.dim)
	// The ν-feasibility clamp OneClassSVM applies, over the current l.
	nu := 0.05
	if lmin := 1 / float64(len(st.view)); nu < lmin {
		nu = lmin
	}
	st.inc.SetNu(nu)
	model, err := st.inc.Refit(st.view, st.stable)
	if err != nil {
		return nil, fmt.Errorf("core: detector one-class-svm: %w", err)
	}
	st.prevLo = append(st.prevLo[:0], st.curLo...)
	st.prevHi = append(st.prevHi[:0], st.curHi...)
	st.scores = outlier.Normalize(model.TrainingDecisions())
	st.scored = len(st.group)
	return model, nil
}

// refitState scores one event type and publishes its top-K, reading the
// top rows back by ordinal.
func (m *OnlineMiner) refitState(st *irqState) (*OnlineRanking, error) {
	rebuildsBefore := st.inc.Rebuilds
	model, err := m.score(st)
	if err != nil {
		return nil, err
	}
	st.refits++
	top := topKIndices(st.scores, m.cfg.TopK)
	ranked := make([]Sample, len(top))
	for pos, idx := range top {
		s, err := m.rows.read(int(st.row[idx]))
		if err != nil {
			return nil, err
		}
		s.Score = st.scores[idx]
		ranked[pos] = s
	}
	return &OnlineRanking{
		IRQ:         st.irq,
		Refit:       st.refits,
		Batches:     m.batches,
		Total:       len(st.group),
		Excluded:    st.excluded,
		Samples:     ranked,
		Rebuilt:     st.inc.Rebuilds > rebuildsBefore,
		Iters:       model.Iters,
		Groups:      model.Groups,
		CacheHits:   model.CacheHits,
		CacheMisses: model.CacheMisses,
	}, nil
}

// FinalizeAll closes the miner and returns one full ranking per event
// type that scored at least one interval, reading every row once in order
// — each bit-identical to one-shot MineBatches over the same batches with
// Config.IRQ set to that type. A type whose last refit saw every member
// publishes that refit's scores and runs no solve. Any other type — one
// that got rows after its last refit, or was never refit (a cadence that
// does not divide the batch count, RefitEvery 0) — is rescaled and solved
// once more the way a refit is, without publishing an intermediate
// ranking or counting a refit. The miner cannot be used afterwards.
func (m *OnlineMiner) FinalizeAll() (map[int]*Ranking, error) {
	if m.closed {
		return nil, fmt.Errorf("core: online miner is closed")
	}
	samples := map[int][]Sample{}
	err := m.rows.scan(func(s Sample) {
		samples[s.Interval.IRQ] = append(samples[s.Interval.IRQ], s)
	})
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	det := m.cfg.Config.detector()
	out := map[int]*Ranking{}
	for _, irq := range m.irqs {
		st := m.states[irq]
		if len(st.group) == 0 {
			continue
		}
		if len(samples[irq]) != len(st.group) {
			return nil, fmt.Errorf("core: spill holds %d rows of event type %d, ingested %d", len(samples[irq]), irq, len(st.group))
		}
		if st.scored != len(st.group) {
			st.effectiveScale()
			if _, err := m.score(st); err != nil {
				return nil, err
			}
		}
		out[irq] = assembleRanking(samples[irq], st.scores, det, m.labels, st.excluded, m.dim)
	}
	if len(out) == 0 {
		return nil, ErrNoIntervals
	}
	return out, nil
}

// Finalize is FinalizeAll narrowed to the primary event type — the
// single-IRQ entry point, bit-identical to one-shot MineBatches.
func (m *OnlineMiner) Finalize() (*Ranking, error) {
	all, err := m.FinalizeAll()
	if err != nil {
		return nil, err
	}
	r := all[m.irqs[0]]
	if r == nil {
		return nil, ErrNoIntervals
	}
	return r, nil
}

// Close releases the row log without scoring. Idempotent.
func (m *OnlineMiner) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	return m.rows.close()
}

// ExtractBatches converts recorded runs into the Batch stream Add and
// MineBatches consume — the bridge from materialized traces to the online
// path, and Mine's own front end. It emits one batch per (run, node) in
// (run, node, interval) order. Nodes outside cfg.Nodes are skipped before
// anatomizing, cfg.Parallelism bounds the workers, and every complete
// interval is featured by cfg.Feature (instruction counters by default).
func ExtractBatches(runs []RunInput, cfg Config) ([]Batch, error) {
	return ExtractBatchesFor(runs, cfg, cfg.IRQ)
}

// ExtractBatchesFor is ExtractBatches over a set of event types: intervals
// of any listed type are featured into the shared batch stream, which is
// what multi-IRQ online mining ingests. Each node is anatomized by a
// lifecycle.Streamer kept to those types, whose counters are the default
// feature; ablation kinds run feature.Extractor on the same intervals and
// feed the streamer the markers without their deltas, since they read no
// counter. Incomplete intervals get an empty counter, and the first
// failing (run, node) job names the error.
func ExtractBatchesFor(runs []RunInput, cfg Config, irqs ...int) ([]Batch, error) {
	allowed := map[int]bool{}
	for _, id := range cfg.Nodes {
		allowed[id] = true
	}
	type job struct {
		run int
		ext *feature.Extractor
		nt  *trace.NodeTrace
	}
	var jobs []job
	for ri, run := range runs {
		if run.Trace == nil {
			return nil, fmt.Errorf("core: run %d has no trace", ri+1)
		}
		ext := feature.NewExtractor(run.Trace)
		for _, nt := range run.Trace.Nodes {
			if len(allowed) > 0 && !allowed[nt.NodeID] {
				continue
			}
			jobs = append(jobs, job{run: ri, ext: ext, nt: nt})
		}
	}

	counters := cfg.Feature == 0 || cfg.Feature == FeatureCounter
	out := make([]Batch, len(jobs))
	errs := make([]error, len(jobs))
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers) // bounds the jobs in flight
	var wg sync.WaitGroup
	for i, jb := range jobs {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			ivs, cnt, err := anatomize(jb.nt, counters, irqs)
			for k := 0; err == nil && !counters && k < len(ivs); k++ {
				if ivs[k].Complete {
					cnt[k], err = extractFeature(jb.ext, runs[jb.run], cfg.Feature, ivs[k])
				}
			}
			if err != nil {
				errs[i] = fmt.Errorf("core: run %d node %d: %w", jb.run+1, jb.nt.NodeID, err)
				return
			}
			out[i] = Batch{Run: jb.run + 1, Intervals: ivs, Counters: cnt}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// anatomize finds a node's intervals of the given IRQs, with their
// instruction counters when counters is set. Without, the markers reach
// the streamer without deltas: the intervals are the same, the counters
// empty, and the replay skips the per-PC work.
func anatomize(nt *trace.NodeTrace, counters bool, irqs []int) ([]lifecycle.Interval, []stats.Sparse, error) {
	s := lifecycle.NewStreamer(nt.NodeID).Keep(irqs...)
	if counters {
		return s.Replay(nt)
	}
	for i, m := range nt.Markers {
		inst := -1
		if nt.TruthInstance != nil {
			inst = nt.TruthInstance[i]
		}
		s.OnMark(m.Kind, m.Arg, m.Cycle, inst, nil, nil)
	}
	return s.Finalize()
}
