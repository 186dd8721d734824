package core

import (
	"bufio"
	"fmt"
	"math"
	"os"

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
// what makes warm refits possible.
type OnlineConfig struct {
	Config

	// IRQs names additional event types to mine alongside Config.IRQ: the
	// miner runs one incremental solver per event type over the single
	// shared arrival stream and spill, and every refit publishes one
	// ranking per type. Config.IRQ (when nonzero) is the primary — the
	// type Finalize returns — and is mined whether or not it is listed
	// here. With an empty IRQs the miner behaves exactly as single-IRQ.
	IRQs []int
	// RefitEvery refits the detectors after every N ingested batches and
	// publishes intermediate rankings; 0 disables intermediate refits
	// (only Finalize scores).
	RefitEvery int
	// TopK bounds intermediate rankings to the K most suspicious
	// intervals (default 100). Finalize always returns the full ranking.
	TopK int
	// SpillDir, when set, spills featured intervals to a columnar
	// SENTCOL1 file in that directory (created if missing) instead of
	// keeping them in memory; refits and Finalize replay the file.
	// Between refits the resident footprint is then O(dim + topK +
	// intervals·(8B warm coefficients + scaled nonzeros)) rather than the
	// raw counters.
	SpillDir string
	// SpillBlock is how many intervals are buffered before a spill block
	// is written (default 512). Format framing only; results are
	// identical at any value.
	SpillBlock int
	// SpillCompact, for the on-disk store, merges a trailing run of
	// undersized blocks (each holding fewer than SpillBlock samples —
	// refits flush partial blocks) once the run reaches this many blocks,
	// so long campaigns with frequent refits don't accumulate per-block
	// overhead at every replay. Default 8; negative disables compaction.
	// Replay results are identical at any setting.
	SpillCompact int
	// OnRanking, when set, receives every intermediate ranking (one per
	// mined event type per refit, in deterministic IRQ order).
	OnRanking func(*OnlineRanking)
}

// OnlineRanking is one intermediate refit's output for one event type: the
// top-K most suspicious intervals so far, with refit provenance and replay
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
	// (normalized score, ingest position) — the prefix of exactly the
	// ranking MineBatches would publish for this detector state.
	Samples []Sample
	// Warm reports whether the refit started from the previous optimum;
	// Rebuilt whether the kernel cache had to be discarded because the
	// effective feature scale moved. Iters/CacheHits/CacheMisses are the
	// refit's solver diagnostics; Groups is how many distinct counters the
	// solver iterated over (at most Total), a deterministic counter like
	// Iters.
	Warm, Rebuilt bool
	Iters         int
	Groups        int
	CacheHits     int64
	CacheMisses   int64
	// Delta reports whether this refit replayed only the blocks appended
	// since the previous refit (all event types' scale bounds were
	// bitwise-stable, so resident scaled samples stayed valid).
	Delta bool
	// BlocksDecoded and BlocksSkipped count the refit's replay work:
	// skipped blocks lie entirely before the delta cursor and were served
	// from resident samples. SamplesReplayed is how many samples the
	// decoded blocks held (across all event types).
	BlocksDecoded, BlocksSkipped, SamplesReplayed int
	// SpilledBlocks/SpilledBytes describe the store at refit time (bytes
	// are 0 for the in-memory store); Compactions counts tiny-block
	// merges performed so far.
	SpilledBlocks int
	SpilledBytes  int64
	Compactions   int
}

// spillStats is a snapshot of a spill store's physical shape.
type spillStats struct {
	bytes       int64 // file size, superseded blocks included; 0 in memory
	blocks      int   // live (replayable) blocks
	compactions int
}

// spillStore holds featured intervals between ingest and replay. Both
// implementations preserve ingest order and return counters bit-identical
// to what was appended.
type spillStore interface {
	append(meta [][]int64, counters []stats.Sparse) error
	// sync makes everything appended so far visible to replayFrom (the
	// file store flushes its partial block and may compact).
	sync() error
	// replayFrom streams, in ingest order, every live block holding at
	// least one sample at ordinal >= from. fn receives each block's
	// first-sample ordinal; a block may straddle `from` (the caller skips
	// the leading samples it already holds). The yielded slices are
	// freshly allocated by the file store and owned by the store for the
	// in-memory one; callers may mutate counters only on a terminal
	// replay (Finalize). Returns how many blocks were decoded and how many
	// were skipped as entirely pre-cursor.
	replayFrom(from int, fn func(start int, meta [][]int64, counters []stats.Sparse) error) (decoded, skipped int, err error)
	stats() spillStats
	close() error
}

// memStore keeps spilled blocks in memory — the SpillDir=="" mode. Each
// non-empty append is one logical block, so the decoded/skipped counters
// behave like the file store's.
type memStore struct {
	blocks []memBlock
}

type memBlock struct {
	start int
	meta  [][]int64
	cnt   []stats.Sparse
}

func (s *memStore) append(meta [][]int64, counters []stats.Sparse) error {
	if len(counters) == 0 {
		return nil
	}
	start := 0
	if n := len(s.blocks); n > 0 {
		start = s.blocks[n-1].start + len(s.blocks[n-1].cnt)
	}
	s.blocks = append(s.blocks, memBlock{start: start, meta: meta, cnt: counters})
	return nil
}

func (s *memStore) sync() error { return nil }

func (s *memStore) replayFrom(from int, fn func(int, [][]int64, []stats.Sparse) error) (decoded, skipped int, err error) {
	for _, b := range s.blocks {
		if b.start+len(b.cnt) <= from {
			skipped++
			continue
		}
		decoded++
		if err := fn(b.start, b.meta, b.cnt); err != nil {
			return decoded, skipped, err
		}
	}
	return decoded, skipped, nil
}

func (s *memStore) stats() spillStats {
	return spillStats{blocks: len(s.blocks)}
}

func (s *memStore) close() error { return nil }

// blockRef is one live block of the on-disk store: its byte position and
// the ordinal range of samples it holds. Compaction replaces a run of refs
// with one ref to a freshly appended merged block; superseded byte ranges
// simply stop being referenced.
type blockRef struct {
	off, length int64
	start, n    int
}

// fileStore spills blocks to a SENTCOL1 file, buffering up to blockSize
// intervals before each append. It keeps the writer-side block index as a
// live-block list, which is what enables cursor-based delta replay
// (skip blocks before the cursor without touching the disk) and tiny-block
// compaction.
type fileStore struct {
	path        string
	f           *os.File
	bw          *bufio.Writer
	w           *trace.ColWriter
	blockMeta   [][]int64
	blockCnt    []stats.Sparse
	blockSize   int
	compactMin  int
	live        []blockRef
	appended    int // samples flushed into blocks
	compactions int
}

func newFileStore(dir string, metaWidth, blockSize, compactMin int) (*fileStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: create spill dir: %w", err)
		}
	}
	f, err := os.CreateTemp(dir, "sentomist-spill-*.col")
	if err != nil {
		return nil, fmt.Errorf("core: create spill: %w", err)
	}
	bw := bufio.NewWriter(f)
	w, err := trace.NewColWriter(bw, metaWidth)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &fileStore{path: f.Name(), f: f, bw: bw, w: w, blockSize: blockSize, compactMin: compactMin}, nil
}

func (s *fileStore) append(meta [][]int64, counters []stats.Sparse) error {
	s.blockMeta = append(s.blockMeta, meta...)
	s.blockCnt = append(s.blockCnt, counters...)
	if len(s.blockCnt) >= s.blockSize {
		return s.flushBlock()
	}
	return nil
}

func (s *fileStore) flushBlock() error {
	if len(s.blockCnt) == 0 {
		return nil
	}
	if err := s.w.Append(s.blockMeta, s.blockCnt); err != nil {
		return err
	}
	idx := s.w.Index()
	st := idx[len(idx)-1]
	s.live = append(s.live, blockRef{off: st.Offset, length: st.Length, start: s.appended, n: st.Samples})
	s.appended += st.Samples
	s.blockMeta, s.blockCnt = s.blockMeta[:0], s.blockCnt[:0]
	return nil
}

// sync flushes the partial block and both buffer layers so every appended
// sample is on disk and replayable, then compacts trailing tiny blocks.
func (s *fileStore) sync() error {
	if err := s.flushBlock(); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("core: flush spill: %w", err)
	}
	return s.maybeCompact()
}

// maybeCompact merges the trailing run of undersized live blocks (partial
// flushes from refit syncs) into one appended block once the run reaches
// compactMin. A merged block that reaches blockSize samples graduates —
// it won't be merged again — so rewrite work stays amortized-bounded.
// Superseded bytes remain in the file unreferenced.
func (s *fileStore) maybeCompact() error {
	if s.compactMin <= 0 {
		return nil
	}
	run := 0
	for run < len(s.live) && s.live[len(s.live)-1-run].n < s.blockSize {
		run++
	}
	if run < s.compactMin {
		return nil
	}
	tail := s.live[len(s.live)-run:]
	var meta [][]int64
	var cnt []stats.Sparse
	for _, ref := range tail {
		m, c, err := trace.ReadColBlockAt(s.f, ref.off)
		if err != nil {
			return fmt.Errorf("core: compact spill: %w", err)
		}
		meta = append(meta, m...)
		cnt = append(cnt, c...)
	}
	if err := s.w.Append(meta, cnt); err != nil {
		return fmt.Errorf("core: compact spill: %w", err)
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("core: flush spill: %w", err)
	}
	idx := s.w.Index()
	st := idx[len(idx)-1]
	merged := blockRef{off: st.Offset, length: st.Length, start: tail[0].start, n: len(cnt)}
	s.live = append(s.live[:len(s.live)-run], merged)
	s.compactions++
	return nil
}

func (s *fileStore) replayFrom(from int, fn func(int, [][]int64, []stats.Sparse) error) (decoded, skipped int, err error) {
	for _, ref := range s.live {
		if ref.start+ref.n <= from {
			skipped++
			continue
		}
		m, c, err := trace.ReadColBlockAt(s.f, ref.off)
		if err != nil {
			return decoded, skipped, err
		}
		decoded++
		if err := fn(ref.start, m, c); err != nil {
			return decoded, skipped, err
		}
	}
	return decoded, skipped, nil
}

func (s *fileStore) stats() spillStats {
	return spillStats{bytes: s.w.Offset(), blocks: len(s.live), compactions: s.compactions}
}

func (s *fileStore) close() error {
	err := s.f.Close()
	if rmErr := os.Remove(s.path); err == nil {
		err = rmErr
	}
	return err
}

// metaFields is the spill row width: the sample's run index plus every
// lifecycle.Interval field, so a replayed ranking labels and sorts exactly
// like one mined from live batches.
const metaFields = 13

func encodeMeta(run int, iv lifecycle.Interval) []int64 {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	return []int64{
		int64(run), int64(iv.IRQ), int64(iv.Seq), int64(iv.Node),
		int64(iv.StartItem), int64(iv.EndItem),
		int64(iv.StartMarker), int64(iv.EndMarker),
		int64(iv.StartCycle), int64(iv.EndCycle),
		b2i(iv.EndsWithTask), b2i(iv.Complete), int64(iv.Truth),
	}
}

func decodeMeta(row []int64) Sample {
	return Sample{
		Run: int(row[0]),
		Interval: lifecycle.Interval{
			IRQ: int(row[1]), Seq: int(row[2]), Node: int(row[3]),
			StartItem: int(row[4]), EndItem: int(row[5]),
			StartMarker: int(row[6]), EndMarker: int(row[7]),
			StartCycle: uint64(row[8]), EndCycle: uint64(row[9]),
			EndsWithTask: row[10] != 0, Complete: row[11] != 0,
			Truth: int(row[12]),
		},
	}
}

// irqState is one event type's mining state: streaming scale statistics,
// the resident scaled samples (kept between refits so stable-bound refits
// touch only the delta), and the warm incremental solver.
type irqState struct {
	irq             int
	lo, hi          []float64
	present         []int
	total, excluded int
	samples         []Sample
	scaled          []stats.Sparse
	prevLo, prevHi  []float64
	inc             *svm.Incremental
	refits          int
	// Per-refit scratch: the effective bounds for this refit, whether
	// they match the previous refit's bitwise, and the replay walk
	// position over the resident prefix.
	curLo, curHi []float64
	stable       bool
	pos          int
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
		if st.present[d] < st.total {
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

// OnlineMiner is the streaming counterpart of MineBatches: batches are
// ingested as their runs finish, one detector per event type is refit
// periodically with warm starts (svm.Incremental), and intermediate top-K
// rankings are published along the way. Scaled samples stay resident
// between refits, so a refit whose scale bounds are bitwise-unchanged
// decodes only the spill blocks appended since the previous refit; when
// bounds move, every block is decoded again and the resident samples
// rescaled. Finalize replays every raw counter through the identical
// scale → score → rank tail MineBatches runs, so the final ranking is
// bit-identical to one-shot MineBatches over the same batches in the same
// order — at any refit cadence, spill mode, compaction setting, worker
// count, or IRQ set.
type OnlineMiner struct {
	cfg     OnlineConfig
	labels  LabelStyle
	allowed map[int]bool
	store   spillStore

	irqs    []int // deterministic publish order; irqs[0] is the primary
	states  map[int]*irqState
	dim     int
	dimSet  bool
	total   int // intervals kept for scoring, across all event types
	batches int
	pending int // batches since the last refit
	cursor  int // kept-interval ordinal up to which samples are resident

	last   *OnlineRanking // primary event type's latest ranking
	closed bool
}

// NewOnlineMiner validates the config and opens the spill store.
func NewOnlineMiner(cfg OnlineConfig) (*OnlineMiner, error) {
	if cfg.IRQ == 0 && len(cfg.IRQs) == 0 {
		return nil, fmt.Errorf("core: config must name the IRQ to mine")
	}
	if cfg.Feature != 0 && cfg.Feature != FeatureCounter {
		return nil, fmt.Errorf("core: streamed batches carry instruction counters; feature kind %d needs the materialized pipeline", cfg.Feature)
	}
	if cfg.DenseFeatures {
		return nil, fmt.Errorf("core: streamed batches are sparse; DenseFeatures needs the materialized pipeline")
	}
	if cfg.Detector != nil {
		return nil, fmt.Errorf("core: online mining drives the incremental one-class SVM; Detector must be nil")
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 100
	}
	if cfg.SpillBlock <= 0 {
		cfg.SpillBlock = 512
	}
	if cfg.SpillCompact == 0 {
		cfg.SpillCompact = 8
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
			irq: irq,
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
	var store spillStore
	if cfg.SpillDir != "" {
		fs, err := newFileStore(cfg.SpillDir, metaFields, cfg.SpillBlock, cfg.SpillCompact)
		if err != nil {
			return nil, err
		}
		store = fs
	} else {
		store = &memStore{}
	}
	return &OnlineMiner{
		cfg:     cfg,
		labels:  labels,
		allowed: allowed,
		store:   store,
		irqs:    irqs,
		states:  states,
	}, nil
}

// IRQs returns the mined event types in publish order (primary first).
func (m *OnlineMiner) IRQs() []int { return append([]int(nil), m.irqs...) }

// Add ingests one batch: filter (identically to MineBatches per event
// type), update the streaming scale statistics, spill the survivors, and —
// every RefitEvery batches — refit every detector and publish intermediate
// rankings. Counters are copied; the caller may reuse the batch. A batch
// rejected as malformed leaves the miner exactly as it was.
func (m *OnlineMiner) Add(b Batch) error {
	if m.closed {
		return fmt.Errorf("core: online miner is closed")
	}
	if err := m.validate(b); err != nil {
		return err
	}
	var meta [][]int64
	var kept []stats.Sparse
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
		if st.lo == nil {
			st.initDims(m.dim)
		}
		for k, d := range c.Idx {
			v := c.Val[k]
			if v < st.lo[d] {
				st.lo[d] = v
			}
			if v > st.hi[d] {
				st.hi[d] = v
			}
			st.present[d]++
		}
		st.total++
		meta = append(meta, encodeMeta(b.Run, iv))
		kept = append(kept, stats.Sparse{
			Idx: append([]int32(nil), c.Idx...),
			Val: append([]float64(nil), c.Val...),
			Dim: c.Dim,
		})
	}
	if err := m.store.append(meta, kept); err != nil {
		return err
	}
	m.total += len(kept)
	m.batches++
	m.pending++
	if m.cfg.RefitEvery > 0 && m.pending >= m.cfg.RefitEvery && m.total > 0 {
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
	kept := 0
	for i, iv := range b.Intervals {
		if m.stateFor(iv) == nil || !iv.Complete {
			continue
		}
		c := b.Counters[i]
		if !dimSet {
			dim, dimSet = c.Dim, true
		}
		if c.Dim != dim {
			return fmt.Errorf("core: sample %d has %d dims, want %d — runs use different binaries", m.total+kept, c.Dim, dim)
		}
		for k, v := range c.Val {
			if v < 0 {
				return fmt.Errorf("core: online mining requires nonnegative counter values, got %g at dim %d", v, c.Idx[k])
			}
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

// replay brings every event type's resident samples up to date with the
// spill. When delta is true only blocks past the cursor are decoded and
// their samples appended; otherwise the full stream is decoded,
// previously resident samples are skipped (stable bounds) or rescaled in
// place (moved bounds), and new samples appended. Returns the replay counters for observability.
func (m *OnlineMiner) replay(delta bool) (decoded, skipped, replayed int, err error) {
	from := 0
	if delta {
		from = m.cursor
	}
	for _, irq := range m.irqs {
		m.states[irq].pos = 0
	}
	decoded, skipped, err = m.store.replayFrom(from, func(start int, meta [][]int64, cnt []stats.Sparse) error {
		replayed += len(cnt)
		for i := range cnt {
			ord := start + i
			st := m.states[int(meta[i][1])]
			if st == nil {
				return fmt.Errorf("core: spilled sample %d has unknown event type %d", ord, meta[i][1])
			}
			if ord < m.cursor {
				if delta {
					// A compacted block straddling the cursor: the leading
					// samples are already resident.
					continue
				}
				if !st.stable {
					scaleInto(&st.scaled[st.pos], cnt[i], st.curLo, st.curHi)
				}
				st.pos++
				continue
			}
			st.samples = append(st.samples, decodeMeta(meta[i]))
			st.scaled = append(st.scaled, scaleWith(cnt[i], st.curLo, st.curHi))
		}
		return nil
	})
	if err != nil {
		return decoded, skipped, replayed, err
	}
	for _, irq := range m.irqs {
		st := m.states[irq]
		if len(st.scaled) != st.total {
			return decoded, skipped, replayed, fmt.Errorf("core: event type %d has %d resident samples after replay, ingested %d", irq, len(st.scaled), st.total)
		}
	}
	m.cursor = m.total
	return decoded, skipped, replayed, nil
}

// refitAll syncs the spill, replays the delta (or everything, when any
// event type's bounds moved), and refits every event type's detector,
// publishing one ranking per type in deterministic IRQ order.
func (m *OnlineMiner) refitAll() error {
	if err := m.store.sync(); err != nil {
		return err
	}
	allStable := true
	for _, irq := range m.irqs {
		st := m.states[irq]
		if st.total == 0 {
			continue
		}
		st.effectiveScale()
		if !st.stable {
			allStable = false
		}
	}
	delta := allStable && m.cursor > 0
	decoded, skipped, replayed, err := m.replay(delta)
	if err != nil {
		return err
	}
	sst := m.store.stats()
	for _, irq := range m.irqs {
		st := m.states[irq]
		if st.total == 0 {
			continue
		}
		r, err := m.refitState(st)
		if err != nil {
			return err
		}
		r.Delta = delta
		r.BlocksDecoded = decoded
		r.BlocksSkipped = skipped
		r.SamplesReplayed = replayed
		r.SpilledBlocks = sst.blocks
		r.SpilledBytes = sst.bytes
		r.Compactions = sst.compactions
		if irq == m.irqs[0] {
			m.last = r
		}
		if m.cfg.OnRanking != nil {
			m.cfg.OnRanking(r)
		}
	}
	return nil
}

// refitState solves one event type warm over its resident scaled samples.
// Cached kernel columns survive iff the bounds are bitwise unchanged since
// the previous refit (resident scaled samples are then bit-identical);
// the warm coefficient start survives either way.
func (m *OnlineMiner) refitState(st *irqState) (*OnlineRanking, error) {
	warm := st.refits > 0
	// The ν-feasibility clamp OneClassSVM applies, over the current l.
	nu := 0.05
	if lmin := 1 / float64(len(st.scaled)); nu < lmin {
		nu = lmin
	}
	st.inc.SetNu(nu)
	rebuildsBefore := st.inc.Rebuilds
	model, err := st.inc.Refit(st.scaled, st.stable)
	if err != nil {
		return nil, fmt.Errorf("core: detector one-class-svm: %w", err)
	}
	st.prevLo = append(st.prevLo[:0], st.curLo...)
	st.prevHi = append(st.prevHi[:0], st.curHi...)
	st.refits++
	scores := outlier.Normalize(model.TrainingDecisions())
	top := topKIndices(scores, m.cfg.TopK)
	ranked := make([]Sample, len(top))
	for pos, idx := range top {
		s := st.samples[idx]
		s.Score = scores[idx]
		ranked[pos] = s
	}
	return &OnlineRanking{
		IRQ:         st.irq,
		Refit:       st.refits,
		Batches:     m.batches,
		Total:       st.total,
		Excluded:    st.excluded,
		Samples:     ranked,
		Warm:        warm,
		Rebuilt:     st.inc.Rebuilds > rebuildsBefore,
		Iters:       model.Iters,
		Groups:      model.Groups,
		CacheHits:   model.CacheHits,
		CacheMisses: model.CacheMisses,
	}, nil
}

// FinalizeAll replays every raw spilled counter through the identical
// scale → score → rank tail MineBatches runs (an exact cold solve per
// event type), closes the spill, and returns one full ranking per event
// type that scored at least one interval — each bit-identical to one-shot
// MineBatches over the same batches with Config.IRQ set to that type. The
// miner cannot be used afterwards.
func (m *OnlineMiner) FinalizeAll() (map[int]*Ranking, error) {
	if m.closed {
		return nil, fmt.Errorf("core: online miner is closed")
	}
	samples := map[int][]Sample{}
	raw := map[int][]stats.Sparse{}
	err := m.store.sync()
	if err == nil {
		_, _, err = m.store.replayFrom(0, func(start int, meta [][]int64, cnt []stats.Sparse) error {
			for i := range cnt {
				irq := int(meta[i][1])
				samples[irq] = append(samples[irq], decodeMeta(meta[i]))
				raw[irq] = append(raw[irq], cnt[i])
			}
			return nil
		})
	}
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out := map[int]*Ranking{}
	for _, irq := range m.irqs {
		if len(raw[irq]) == 0 {
			continue
		}
		st := m.states[irq]
		r, err := rankSparse(samples[irq], raw[irq], m.cfg.Config.defaultDetector(), m.labels, st.excluded)
		if err != nil {
			return nil, err
		}
		out[irq] = r
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

// Close releases the spill store without scoring. Idempotent.
func (m *OnlineMiner) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	return m.store.close()
}

// ExtractBatches converts recorded runs into the Batch stream Add and
// MineBatches consume — the bridge from materialized traces to the online
// path, visiting (run, node, interval) in exactly the order Mine does.
func ExtractBatches(runs []RunInput, cfg Config) ([]Batch, error) {
	return ExtractBatchesFor(runs, cfg, cfg.IRQ)
}

// ExtractBatchesFor is ExtractBatches over a set of event types: intervals
// of any listed type are featured into the shared batch stream, which is
// what multi-IRQ online mining ingests. Passing exactly one type matches
// ExtractBatches.
func ExtractBatchesFor(runs []RunInput, cfg Config, irqs ...int) ([]Batch, error) {
	want := map[int]bool{}
	for _, irq := range irqs {
		want[irq] = true
	}
	var out []Batch
	for ri, run := range runs {
		if run.Trace == nil {
			return nil, fmt.Errorf("core: run %d has no trace", ri+1)
		}
		ext := feature.NewExtractor(run.Trace)
		for _, nt := range run.Trace.Nodes {
			seq := lifecycle.NewSequence(nt)
			ivs, err := seq.Extract()
			if err != nil {
				return nil, fmt.Errorf("core: run %d node %d: %w", ri+1, nt.NodeID, err)
			}
			b := Batch{Run: ri + 1}
			for _, iv := range ivs {
				if !want[iv.IRQ] {
					continue
				}
				var c stats.Sparse
				if iv.Complete {
					if c, err = ext.CounterSparse(iv); err != nil {
						return nil, fmt.Errorf("core: run %d node %d: %w", ri+1, nt.NodeID, err)
					}
				}
				b.Intervals = append(b.Intervals, iv)
				b.Counters = append(b.Counters, c)
			}
			out = append(out, b)
		}
	}
	return out, nil
}
