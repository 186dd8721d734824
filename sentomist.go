// Package sentomist reproduces "Sentomist: Unveiling Transient Sensor
// Network Bugs via Symptom Mining" (Zhou, Chen, Lyu, Liu — ICDCS 2010) as a
// Go library.
//
// Sentomist mines the execution trace of an event-driven wireless sensor
// network application for the symptoms of transient bugs. It anatomizes the
// trace into event-handling intervals (the lifetime of one event-procedure
// instance), features each interval as an instruction counter, scores every
// interval with a plug-in outlier detector (a one-class ν-SVM by default),
// and ranks the intervals most deserving of manual inspection first.
//
// The package bundles everything the paper's pipeline needs, built from
// scratch on the standard library:
//
//   - a cycle-accurate virtual microcontroller (SVM-8) with an assembler,
//     TinyOS-style interrupt/task runtime, hardware devices, and a CSMA
//     radio medium for multi-node simulation;
//   - the interval-identification algorithm over lifecycle sequences;
//   - the one-class SVM and alternative outlier detectors;
//   - the paper's three case-study applications, each with its transient
//     bug and a fixed variant.
//
// # Quick start
//
//	run, err := sentomist.RunCaseI(sentomist.CaseIConfig{
//		PeriodMS: 20, Seconds: 10, Seed: 1,
//	})
//	if err != nil { ... }
//	ranking, err := sentomist.Mine(
//		[]sentomist.RunInput{{Trace: run.Trace, Programs: run.Programs}},
//		sentomist.MineConfig{IRQ: sentomist.IRQADC, Nodes: []int{sentomist.CaseISensorID}},
//	)
//	fmt.Print(ranking.Table(5, 2))
//
// Custom applications are written in SVM-8 assembly and wired into a
// Scenario; see NewScenario and the examples directory.
package sentomist

import (
	"io"

	"sentomist/internal/apps"
	"sentomist/internal/bundle"
	"sentomist/internal/campaign"
	"sentomist/internal/core"
	"sentomist/internal/isa"
	"sentomist/internal/lifecycle"
	"sentomist/internal/outlier"
	"sentomist/internal/sim"
	"sentomist/internal/svm"
	"sentomist/internal/trace"
)

// Interrupt numbers of the simulated node hardware, used to select which
// event type to mine.
const (
	IRQTimer0  = 1 // data-report / sampling timer
	IRQTimer1  = 2 // auxiliary timer (heartbeat protocol)
	IRQADC     = 3 // ADC conversion complete (sensor reading ready)
	IRQRadioRX = 4 // frame received (the paper's SPI interrupt)
	IRQTxDone  = 5 // radio send completed
)

// Core pipeline types.
type (
	// Trace is a recorded testing run: per-node lifecycle sequences
	// with instruction-count deltas.
	Trace = trace.Trace
	// Interval is one event-handling interval (paper Definition 2).
	Interval = lifecycle.Interval
	// RunInput is one testing run handed to Mine.
	RunInput = core.RunInput
	// MineConfig parameterizes the mining pipeline.
	MineConfig = core.Config
	// Ranking is the pipeline output: intervals ascending by score.
	Ranking = core.Ranking
	// Sample is one scored interval within a Ranking.
	Sample = core.Sample
	// LabelStyle selects how rankings label intervals.
	LabelStyle = core.LabelStyle
	// Detector is the plug-in outlier detection interface.
	Detector = outlier.Detector
	// Kernel is an SVM kernel function.
	Kernel = svm.Kernel
)

// Label styles for rendering rankings (paper Figure 5's three forms).
const (
	LabelRunSeq  = core.LabelRunSeq
	LabelSeqOnly = core.LabelSeqOnly
	LabelNodeSeq = core.LabelNodeSeq
)

// Feature kinds for MineConfig.Feature.
const (
	FeatureCounter    = core.FeatureCounter
	FeatureFuncCount  = core.FeatureFuncCount
	FeatureDuration   = core.FeatureDuration
	FeatureStackDepth = core.FeatureStackDepth
)

// Mine runs the Sentomist pipeline (anatomize → feature → detect → rank)
// over one or more testing runs.
func Mine(runs []RunInput, cfg MineConfig) (*Ranking, error) {
	return core.Mine(runs, cfg)
}

// Streaming pipeline (online anatomize + feature during recording).
type (
	// StreamSink receives lifecycle markers as the recorder emits them;
	// lifecycle.Streamer is the online anatomizer implementation. Wire
	// one into NodeSpec.Stream (or a case config's Stream map) to
	// feature a node without materializing its marker trace.
	StreamSink = trace.StreamSink
	// Streamer is the online anatomizer: it advances the interval
	// pushdown automaton on every marker and reads each interval's
	// instruction counter off running per-PC totals.
	Streamer = lifecycle.Streamer
	// CampaignConfig selects what a streamed campaign mines and how
	// wide it fans out.
	CampaignConfig = campaign.Config
	// CampaignAttach creates the online anatomizer for one monitored
	// node inside a CampaignRun.
	CampaignAttach = campaign.Attach
	// CampaignRun executes one testing run of a campaign.
	CampaignRun = campaign.RunFunc
	// MineBatch is one run's streamed intervals and counters.
	MineBatch = core.Batch
)

// NewStreamer creates an online anatomizer for nodeID; Finalize recycles
// its counter storage internally. Intervals the run cut short come back
// with an empty counter: every miner excludes them.
func NewStreamer(nodeID int) *Streamer {
	return lifecycle.NewStreamer(nodeID)
}

// MineCampaign fans the runs over a bounded worker pool, featuring each
// run online through attached Streamers, and ranks the streamed batches.
// The ranking is bit-identical to materializing every trace and calling
// Mine.
func MineCampaign(cfg CampaignConfig, runs []CampaignRun) (*Ranking, error) {
	return campaign.Mine(cfg, runs)
}

// MineCampaignAll is MineCampaign for multi-IRQ online campaigns: every
// event type named by cfg.IRQ and cfg.Online.IRQs is mined over the shared
// run stream, returning one final ranking per type — each bit-identical to
// the one-shot path with that type as the config IRQ. Requires
// CampaignConfig.Online.
func MineCampaignAll(cfg CampaignConfig, runs []CampaignRun) (map[int]*Ranking, error) {
	return campaign.MineAll(cfg, runs)
}

// MineBatches ranks pre-featured interval batches — the detect → rank
// tail of the pipeline, for batches produced by Streamers outside
// MineCampaign.
func MineBatches(batches []MineBatch, cfg MineConfig) (*Ranking, error) {
	return core.MineBatches(batches, cfg)
}

// Online incremental mining (rank-as-you-go).
type (
	// OnlineMiner ingests batches as runs finish, refits the one-class
	// SVM periodically, publishes streaming top-K rankings — each the head
	// of one-shot MineBatches over the batches so far — and finalizes to a
	// ranking bit-identical to one-shot MineBatches over the same batches.
	OnlineMiner = core.OnlineMiner
	// OnlineMineConfig parameterizes an OnlineMiner (refit cadence,
	// top-K bound, row spill directory).
	OnlineMineConfig = core.OnlineConfig
	// OnlineRanking is one intermediate refit's top-K output with its
	// solver provenance (cache reuse, iterations).
	OnlineRanking = core.OnlineRanking
	// CampaignOnline switches MineCampaign to the streaming-ingest path;
	// set it as CampaignConfig.Online.
	CampaignOnline = campaign.OnlineOptions
)

// NewOnlineMiner opens an online miner (and its row spill file, when
// configured).
func NewOnlineMiner(cfg OnlineMineConfig) (*OnlineMiner, error) {
	return core.NewOnlineMiner(cfg)
}

// ExtractBatches converts recorded runs into the batch stream OnlineMiner
// and MineBatches consume, one batch per (run, node) in (run, node,
// interval) order; Mine with instruction counters is ExtractBatches then
// MineBatches. Nodes outside cfg.Nodes are skipped before anatomizing, so
// they yield no batch (MineBatches and OnlineMiner drop their intervals
// anyway), and cfg.Parallelism bounds the anatomizing workers.
func ExtractBatches(runs []RunInput, cfg MineConfig) ([]MineBatch, error) {
	return core.ExtractBatches(runs, cfg)
}

// ExtractBatchesFor is ExtractBatches over a set of event types — the
// stream a multi-IRQ OnlineMiner (OnlineMineConfig.IRQs) ingests.
func ExtractBatchesFor(runs []RunInput, cfg MineConfig, irqs ...int) ([]MineBatch, error) {
	return core.ExtractBatchesFor(runs, cfg, irqs...)
}

// SVMDetector is the paper's default detector with every training knob
// exposed: ν, kernel, and the parallelism and byte budget of the kernel
// column cache (bit-identical scores at any setting).
type SVMDetector = outlier.OneClassSVM

// OneClassSVM returns the paper's default detector with the given ν
// (fraction of samples treated as outliers; 0 selects 0.05). A nil kernel
// selects RBF with gamma = 1/dim. Use SVMDetector directly to set the
// campaign-scale cache budget.
func OneClassSVM(nu float64, kernel Kernel) Detector {
	return SVMDetector{Nu: nu, Kernel: kernel}
}

// PCADetector scores by reconstruction error outside the principal
// subspace capturing varFraction of the variance (0 selects 0.95).
func PCADetector(varFraction float64) Detector {
	return outlier.PCA{VarFraction: varFraction}
}

// MahalanobisDetector scores by diagonal Mahalanobis distance from the
// batch mean.
func MahalanobisDetector() Detector {
	return outlier.Mahalanobis{}
}

// RBFKernel returns the Gaussian kernel exp(-gamma ‖a-b‖²).
func RBFKernel(gamma float64) Kernel { return svm.RBF{Gamma: gamma} }

// LinearKernel returns the inner-product kernel.
func LinearKernel() Kernel { return svm.Linear{} }

// Scenario building (custom applications).
type (
	// Scenario wires user-written SVM-8 programs into a multi-node
	// simulation.
	Scenario = apps.Scenario
	// NodeSpec describes one node of a Scenario.
	NodeSpec = apps.NodeSpec
	// Run is a finished simulation: trace, programs, network, nodes.
	Run = apps.Run
	// SimStats are the recording scheduler's per-run counters (rounds,
	// jumps, parallel sections); Run.Stats and Bundle.Stats carry them.
	SimStats = sim.Stats
)

// NewScenario creates an empty scenario whose randomness derives from seed.
func NewScenario(seed uint64) *Scenario { return apps.NewScenario(seed) }

// Case studies (the paper's Section VI).
type (
	// CaseIConfig configures the data-pollution study (paper §VI-B).
	CaseIConfig = apps.OscConfig
	// CaseIIConfig configures the packet-loss study (paper §VI-C).
	CaseIIConfig = apps.ForwarderConfig
	// CaseIIIConfig configures the CTP-hang study (paper §VI-D).
	CaseIIIConfig = apps.CTPConfig
)

// Node IDs of the case-study topologies.
const (
	CaseISinkID    = apps.OscSinkID
	CaseISensorID  = apps.OscSensorID
	CaseIISinkID   = apps.FwdSinkID
	CaseIIRelayID  = apps.FwdRelayID
	CaseIISourceID = apps.FwdSourceID
	CaseIIIRootID  = apps.CTPRootID
)

// CaseIIISources returns the monitored source nodes of Case III.
func CaseIIISources() []int {
	return append([]int(nil), apps.CTPSources...)
}

// RunCaseI executes one Case-I testing run (single-hop collection with the
// Figure-2 data-pollution race).
func RunCaseI(cfg CaseIConfig) (*Run, error) { return apps.RunOscilloscope(cfg) }

// RunCaseII executes one Case-II testing run (multi-hop forwarding with
// the busy-flag active drop).
func RunCaseII(cfg CaseIIConfig) (*Run, error) { return apps.RunForwarder(cfg) }

// RunCaseIII executes one Case-III testing run (CTP + heartbeat with the
// unhandled send failure).
func RunCaseIII(cfg CaseIIIConfig) (*Run, error) { return apps.RunCTPHeartbeat(cfg) }

// CaseISymptom is the Case-I ground-truth oracle: the interval shows the
// Figure-2 data-pollution race. Experiments use it to confirm top-ranked
// intervals, standing in for the paper's manual inspection. Oracles error
// when the question is malformed (no trace or binary for the interval's
// node, or a missing oracle label) rather than reading as symptom-absent.
func CaseISymptom(run *Run, iv Interval) (bool, error) { return apps.CaseISymptom(run, iv) }

// CaseIISymptom is the Case-II oracle: the interval took the busy-flag
// active-drop path.
func CaseIISymptom(run *Run, iv Interval) (bool, error) { return apps.CaseIISymptom(run, iv) }

// CaseIIITrigger is the Case-III oracle for the FAIL-trigger instance.
func CaseIIITrigger(run *Run, iv Interval) (bool, error) { return apps.CaseIIITrigger(run, iv) }

// CaseIIISymptom is the Case-III oracle for any hang symptom (the trigger
// or a post-hang skipped report).
func CaseIIISymptom(run *Run, iv Interval) (bool, error) { return apps.CaseIIISymptom(run, iv) }

// LoadTrace reads a trace saved by SaveTrace (binary, or JSON for paths
// ending in ".json").
func LoadTrace(path string) (*Trace, error) { return trace.LoadFile(path) }

// SaveTrace writes a trace to path (binary, or JSON for ".json" paths).
func SaveTrace(t *Trace, path string) error { return t.SaveFile(path) }

// ExtractIntervals anatomizes a trace into event-handling intervals without
// running a detector — the paper's Section V-A step on its own.
func ExtractIntervals(t *Trace) ([]Interval, error) {
	return lifecycle.ExtractTrace(t)
}

// Program is a linked SVM-8 binary (code image, vectors, tasks, symbols).
type Program = isa.Program

// SymbolCount is one row of an interval inspection.
type SymbolCount = core.SymbolCount

// SymbolCounts aggregates an interval's instruction counter by program
// symbol, highest count first — the first thing to look at when manually
// inspecting a top-ranked interval.
func SymbolCounts(t *Trace, prog *Program, iv Interval) ([]SymbolCount, error) {
	return core.SymbolCounts(t, prog, iv)
}

// DescribeInterval renders an interval's lifecycle item window in the
// paper's notation ("int(3), postTask(0), reti, int(3), reti, runTask(0)").
func DescribeInterval(t *Trace, iv Interval) (string, error) {
	return core.DescribeInterval(t, iv)
}

// Bug localization (the paper's stated future work, Section VII).
type (
	// LocalizeConfig parameterizes Localize.
	LocalizeConfig = core.LocalizeConfig
	// LineSuspicion is one localized code location.
	LineSuspicion = core.LineSuspicion
)

// Localize correlates a ranking's suspicious intervals with program
// instructions, returning the code locations most implicated in the
// symptom — the paper's symptom-to-source extension.
func Localize(runs []RunInput, ranking *Ranking, prog *Program, cfg LocalizeConfig) ([]LineSuspicion, error) {
	return core.Localize(runs, ranking, prog, cfg)
}

// LocalizeReport renders suspicions as a table.
func LocalizeReport(suspicions []LineSuspicion) string {
	return core.LocalizeReport(suspicions)
}

// AnnotatedListing renders the instructions an interval executed as an
// annotated disassembly with per-instruction execution counts — the
// artifact a developer reads when manually inspecting a ranked interval.
func AnnotatedListing(t *Trace, prog *Program, iv Interval) (string, error) {
	return core.AnnotatedListing(t, prog, iv)
}

// Bundle is a persisted testing run: the trace plus every node's binary
// and variable table, enabling fully offline mining and inspection.
type Bundle = bundle.Bundle

// SaveBundle persists a finished run to path.
func SaveBundle(run *Run, path string) error {
	b := &Bundle{Trace: run.Trace, Programs: run.Programs, Vars: run.Vars, Stats: run.Stats}
	return b.SaveFile(path)
}

// LoadBundle reads a bundle saved by SaveBundle.
func LoadBundle(path string) (*Bundle, error) { return bundle.LoadFile(path) }

// HTMLConfig parameterizes HTMLReport.
type HTMLConfig = core.HTMLConfig

// HTMLReport renders a ranking as a self-contained HTML page: the full
// suspicion table, detailed inspections of the top intervals, and the
// symptom-to-source localization.
func HTMLReport(w io.Writer, runs []RunInput, ranking *Ranking, prog *Program, cfg HTMLConfig) error {
	return core.HTMLReport(w, runs, ranking, prog, cfg)
}
