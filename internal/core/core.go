// Package core is Sentomist's bug-symptom mining pipeline (the paper's
// Figure 3): take the traces of one or more testing runs, anatomize them
// into event-handling intervals, feature each interval as an instruction
// counter, score every sample with a plug-in outlier detector, and emit the
// ascending ranking that directs manual inspection.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"

	"sentomist/internal/feature"
	"sentomist/internal/isa"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
	"sentomist/internal/stats"
	"sentomist/internal/trace"
)

// FeatureKind selects how intervals are featured.
type FeatureKind uint8

// Feature kinds. FeatureCounter is the paper's Definition 4; the others
// exist for the ablation experiments.
const (
	FeatureCounter FeatureKind = iota + 1
	FeatureFuncCount
	FeatureDuration
	FeatureStackDepth
)

// LabelStyle selects how samples are labeled in rankings, mirroring the
// paper's three tables: [r, s] with the run index (Fig. 5a), a bare
// chronological index (Fig. 5b), or [n, s] with the node ID (Fig. 5c).
type LabelStyle uint8

// Label styles.
const (
	LabelRunSeq LabelStyle = iota + 1
	LabelSeqOnly
	LabelNodeSeq
)

// RunInput is one testing run to mine.
type RunInput struct {
	Trace *trace.Trace
	// Programs maps node ID to its binary; needed only for
	// FeatureFuncCount.
	Programs map[int]*isa.Program
}

// Config parameterizes mining.
type Config struct {
	// IRQ is the event type whose intervals are mined.
	IRQ int
	// Nodes restricts mining to these node IDs; nil means all nodes.
	Nodes []int
	// Detector defaults to the one-class SVM.
	Detector outlier.Detector
	// Feature defaults to FeatureCounter.
	Feature FeatureKind
	// Labels defaults to LabelRunSeq.
	Labels LabelStyle
	// Parallelism bounds the worker pool that anatomizes and features
	// the runs' nodes concurrently: 0 selects GOMAXPROCS, 1 forces the
	// sequential path. Samples are stitched back in deterministic
	// (run, node, interval) order, so the ranking is identical at any
	// setting.
	Parallelism int
	// SVMCacheBytes bounds the kernel column cache the default
	// one-class-SVM detector trains through; 0 selects
	// svm.DefaultCacheBytes. Rankings are bit-identical at any budget.
	// Ignored when Detector is set explicitly.
	SVMCacheBytes int64
}

// detector returns cfg.Detector, defaulting to the paper's one-class SVM
// carrying the config's training knobs.
func (cfg Config) detector() outlier.Detector {
	if cfg.Detector != nil {
		return cfg.Detector
	}
	return outlier.OneClassSVM{CacheBytes: cfg.SVMCacheBytes}
}

// Sample is one scored event-handling interval.
type Sample struct {
	// Run is the 1-based index of the testing run the sample came from.
	Run int
	// Interval identifies the event-procedure instance.
	Interval lifecycle.Interval
	// Score is the detector's normalized score; lower = more suspicious.
	Score float64
}

// Label renders the sample index in the requested style.
func (s Sample) Label(style LabelStyle) string {
	switch style {
	case LabelSeqOnly:
		return fmt.Sprintf("%d", s.Interval.Seq)
	case LabelNodeSeq:
		return fmt.Sprintf("[%d, %d]", s.Interval.Node, s.Interval.Seq)
	default:
		return fmt.Sprintf("[%d, %d]", s.Run, s.Interval.Seq)
	}
}

// Ranking is the pipeline's output: samples ascending by score (most
// suspicious first), ready for top-k manual inspection.
type Ranking struct {
	Detector string
	Labels   LabelStyle
	Samples  []Sample
	// Excluded counts intervals dropped because the run ended before
	// the instance completed.
	Excluded int
	// Dim is the feature dimensionality.
	Dim int
}

// Top returns the k most suspicious samples (fewer if the ranking is
// shorter, none if k is negative).
func (r *Ranking) Top(k int) []Sample {
	return r.Samples[:max(0, min(k, len(r.Samples)))]
}

// RankOf returns the 1-based rank of the first sample satisfying pred, or
// 0 when none does.
func (r *Ranking) RankOf(pred func(Sample) bool) int {
	for i, s := range r.Samples {
		if pred(s) {
			return i + 1
		}
	}
	return 0
}

// Table renders the top and bottom of the ranking the way the paper's
// Figure 5 prints it. A negative count prints no rows on that side.
func (r *Ranking) Table(top, bottom int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s\n", "Instance", "Score")
	n := len(r.Samples)
	top = max(0, min(top, n))
	for _, s := range r.Samples[:top] {
		fmt.Fprintf(&b, "%-14s %10.4f\n", s.Label(r.Labels), s.Score)
	}
	if bottom > 0 && top < n {
		fmt.Fprintf(&b, "%-14s %10s\n", "...", "...")
		start := n - bottom
		if start < top {
			start = top
		}
		for _, s := range r.Samples[start:] {
			fmt.Fprintf(&b, "%-14s %10.4f\n", s.Label(r.Labels), s.Score)
		}
	}
	return b.String()
}

// ErrNoIntervals is returned when no complete interval of the requested
// event type exists in the input runs.
var ErrNoIntervals = errors.New("core: no complete intervals of the requested event type")

// Mine runs the full pipeline over the given testing runs: ExtractBatches
// features every complete interval by cfg.Feature, and MineBatches scales,
// scores and ranks them.
func Mine(runs []RunInput, cfg Config) (*Ranking, error) {
	if cfg.IRQ == 0 {
		return nil, fmt.Errorf("core: config must name the IRQ to mine")
	}
	batches, err := ExtractBatches(runs, cfg)
	if err != nil {
		return nil, err
	}
	return MineBatches(batches, cfg)
}

// mapNodes anatomizes every monitored node of every run and hands the
// intervals to fn, one job per (run, node) on up to cfg.Parallelism
// workers. Nodes outside cfg.Nodes are skipped before anatomizing. run is
// the 0-based index into runs and ext is that run's extractor, shared by
// its jobs. Results come back in (run, node) order, so whatever the caller
// stitches from them is identical at any parallelism; the first failing
// job in that order names the error.
func mapNodes[T any](runs []RunInput, cfg Config, fn func(run int, ext *feature.Extractor, ivs []lifecycle.Interval) (T, error)) ([]T, error) {
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

	out := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	do := func(i int) {
		jb := jobs[i]
		ivs, err := lifecycle.NewSequence(jb.nt).Extract()
		if err == nil {
			out[i], err = fn(jb.run, jb.ext, ivs)
		}
		if err != nil {
			errs[i] = fmt.Errorf("core: run %d node %d: %w", jb.run+1, jb.nt.NodeID, err)
		}
	}
	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				do(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rankSparse is the shared scoring tail of the sparse pipeline —
// MineBatches (and so Mine) and OnlineMiner.FinalizeAll end here. It takes the
// distinct counters and each sample's group (nil: every sample is its own
// group, distinct holds one counter per sample), scales the distinct
// counters per dimension into [0,1] in place (exactly Scale01's semantics
// on the densified matrix), hands every sample its group's scaled vector,
// scores through the sparse fast path when the detector has one, and
// ranks ascending. Scaling the distinct counters equals scaling every
// sample bit for bit: the per-dimension min, max and "some sample lacks
// the dimension" are the same over both sets.
func rankSparse(samples []Sample, distinct []stats.Sparse, group []int32, det outlier.Detector, labels LabelStyle, excluded int) (*Ranking, error) {
	if len(distinct) == 0 {
		return nil, ErrNoIntervals
	}
	dim := distinct[0].Dim
	for i, v := range distinct {
		if v.Dim != dim {
			return nil, fmt.Errorf("core: sample %d has %d dims, want %d — runs use different binaries", i, v.Dim, dim)
		}
	}
	feature.Scale01Sparse(distinct)
	svectors := distinct
	if group != nil {
		svectors = make([]stats.Sparse, len(group))
		for i, g := range group {
			svectors[i] = distinct[g]
		}
	}
	var scores []float64
	var err error
	if sd, ok := det.(outlier.SparseDetector); ok {
		scores, err = sd.ScoreSparse(svectors)
	} else {
		// Densify the scaled batch for detectors without a sparse path;
		// scaled-then-densified equals densified-then-scaled exactly.
		vectors := make([][]float64, len(svectors))
		for i, v := range svectors {
			vectors[i] = v.Dense()
		}
		scores, err = det.Score(vectors)
	}
	if err != nil {
		return nil, fmt.Errorf("core: detector %s: %w", det.Name(), err)
	}
	return assembleRanking(samples, scores, det, labels, excluded, dim), nil
}

// checkCounter rejects a counter no instruction count can produce: a
// value that is negative, NaN or infinite, index and value lists of
// different lengths, or indices outside [0, Dim) or not strictly
// ascending. sample is the kept-sample ordinal the error names.
func checkCounter(sample int, c stats.Sparse) error {
	if len(c.Idx) != len(c.Val) {
		return fmt.Errorf("core: sample %d has %d indices but %d values", sample, len(c.Idx), len(c.Val))
	}
	for k, d := range c.Idx {
		if d < 0 || int(d) >= c.Dim || (k > 0 && d <= c.Idx[k-1]) {
			return fmt.Errorf("core: sample %d has index %d at entry %d, want ascending indices in [0, %d)", sample, d, k, c.Dim)
		}
		if v := c.Val[k]; v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: sample %d holds %g at dim %d; counters must be finite and nonnegative", sample, v, d)
		}
	}
	return nil
}

func assembleRanking(samples []Sample, scores []float64, det outlier.Detector, labels LabelStyle, excluded, dim int) *Ranking {
	order := outlier.Rank(scores)
	ranked := make([]Sample, len(order))
	for pos, idx := range order {
		s := samples[idx]
		s.Score = scores[idx]
		ranked[pos] = s
	}
	return &Ranking{
		Detector: det.Name(),
		Labels:   labels,
		Samples:  ranked,
		Excluded: excluded,
		Dim:      dim,
	}
}

// Batch is the streamed output of one run's online anatomizers: every
// interval a node's Streamer finalized, paired with its sparse instruction
// counter at the same index. Batches are what the campaign engine hands to
// MineBatches in place of materialized traces.
type Batch struct {
	// Run is the 1-based index of the testing run (the sample label's
	// "r"). Several batches may share a run (one per monitored node).
	Run int
	// Intervals and Counters are parallel: Counters[i] is the feature
	// vector of Intervals[i] — its Definition-4 counter unless
	// ExtractBatches ran with an ablation feature kind.
	Intervals []lifecycle.Interval
	Counters  []stats.Sparse
}

// MineBatches scores pre-featured interval batches — the streamed
// counterpart of Mine. The anatomize and feature phases already happened
// online during recording, so only the filter → scale → detect → rank tail
// runs here. Batches must arrive in the (run, node, interval) order the
// materialized pipeline would visit, which makes the ranking bit-identical
// to Mine over the equivalent traces.
//
// The batches carry whatever feature ExtractBatches extracted;
// cfg.Feature is not consulted here. Scaling mutates the batch counters
// in place.
func MineBatches(batches []Batch, cfg Config) (*Ranking, error) {
	if cfg.IRQ == 0 {
		return nil, fmt.Errorf("core: config must name the IRQ to mine")
	}
	det := cfg.detector()
	labels := cfg.Labels
	if labels == 0 {
		labels = LabelRunSeq
	}
	allowed := map[int]bool{}
	for _, id := range cfg.Nodes {
		allowed[id] = true
	}
	var samples []Sample
	var svectors []stats.Sparse
	excluded := 0
	for bi, b := range batches {
		if len(b.Intervals) != len(b.Counters) {
			return nil, fmt.Errorf("core: batch %d has %d intervals but %d counters", bi, len(b.Intervals), len(b.Counters))
		}
		for i, iv := range b.Intervals {
			if iv.IRQ != cfg.IRQ {
				continue
			}
			if len(allowed) > 0 && !allowed[iv.Node] {
				continue
			}
			if !iv.Complete {
				excluded++
				continue
			}
			if err := checkCounter(len(svectors), b.Counters[i]); err != nil {
				return nil, err
			}
			samples = append(samples, Sample{Run: b.Run, Interval: iv})
			svectors = append(svectors, b.Counters[i])
		}
	}
	return rankSparse(samples, svectors, nil, det, labels, excluded)
}

// extractFeature features one complete interval by feat. The ablation
// features are finite and nonnegative (cycles, counts, bytes below the
// stack top), so their sparse form passes checkCounter, and scaling it
// equals Scale01 on the dense vectors.
func extractFeature(ext *feature.Extractor, run RunInput, feat FeatureKind, iv lifecycle.Interval) (stats.Sparse, error) {
	var v []float64
	var err error
	switch feat {
	case 0, FeatureCounter:
		return ext.CounterSparse(iv)
	case FeatureFuncCount:
		prog := run.Programs[iv.Node]
		if prog == nil {
			return stats.Sparse{}, fmt.Errorf("no program for node %d (FeatureFuncCount needs Programs)", iv.Node)
		}
		v, err = ext.FuncCounter(prog, iv)
	case FeatureDuration:
		v = ext.Duration(iv)
	case FeatureStackDepth:
		v, err = ext.StackDepth(iv)
	default:
		return stats.Sparse{}, fmt.Errorf("unknown feature kind %d", feat)
	}
	if err != nil {
		return stats.Sparse{}, err
	}
	return stats.DenseToSparse(v), nil
}
