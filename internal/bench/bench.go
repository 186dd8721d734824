// Package bench is Sentomist-bench: a Defects4J-style corpus of seeded
// transient bugs (ROADMAP item 3), each a buggy/fixed firmware pair with a
// ground-truth interval oracle, plus the ranking-quality harness that turns
// "does the ranking still look right" into measured precision@k and MRR per
// bug class. The checked-in BENCH_QUALITY.json baseline gates regressions
// in CI (make bench-quality). The ablation matrix (EvaluateMatrix) scores
// every mining mode of Arms on every entry through the same code, pinned
// by testdata/ablation_matrix.golden (make golden).
//
// A catalog entry is a contract, not just a scenario:
//
//   - the buggy variant manifests at least one symptomatic interval under
//     the entry's monitored event type, and
//   - the fixed variant — same topology, same seed, same traffic —
//     manifests none (or, when the symptom path does not even exist in the
//     fixed binary, the oracle's label lookup must fail on it).
//
// Evaluate enforces both sides, so a catalog entry whose bug stopped
// manifesting (or whose fix stopped fixing) fails the harness instead of
// silently inflating the corpus.
package bench

import (
	"fmt"

	"sentomist/internal/apps"
	"sentomist/internal/core"
	"sentomist/internal/dev"
	"sentomist/internal/lifecycle"
	"sentomist/internal/synth"
)

// Oracle is the ground-truth interface of the corpus: a trace predicate
// over event-handling intervals, generalizing the case-study oracles of
// internal/apps/oracle.go. Implementations return an error — never a quiet
// false — when the question is malformed (missing trace, missing program,
// label absent from the binary): a broken oracle must fail the harness,
// not zero out its metrics.
type Oracle interface {
	Symptom(run *apps.Run, iv lifecycle.Interval) (bool, error)
}

// OracleFunc adapts a plain oracle function (the shape every oracle in
// internal/apps already has) to the Oracle interface.
type OracleFunc func(run *apps.Run, iv lifecycle.Interval) (bool, error)

// Symptom implements Oracle.
func (f OracleFunc) Symptom(run *apps.Run, iv lifecycle.Interval) (bool, error) {
	return f(run, iv)
}

// LabelOracle judges an interval symptomatic when it executed the named
// instruction — the oracle shape for bugs whose firmware marks the symptom
// with a dedicated recovery/repair path present in both variants.
func LabelOracle(label string) Oracle {
	return OracleFunc(func(run *apps.Run, iv lifecycle.Interval) (bool, error) {
		return apps.IntervalExecutedLabel(run, iv, label)
	})
}

// HangOracle is the unhandled-failure-hang oracle shape (apps.HangSymptom):
// symptomatic intervals are the failure trigger itself and every skip that
// follows it.
func HangOracle(irq int, failLabel, skipLabel string) Oracle {
	return OracleFunc(func(run *apps.Run, iv lifecycle.Interval) (bool, error) {
		return apps.HangSymptom(run, iv, irq, failLabel, skipLabel)
	})
}

// Bug classes of the corpus. Per-class aggregation (ClassResult) reports
// precision@k and MRR across the entries of each class.
const (
	// ClassAtomicity: interleaving bugs — a lost update, torn read, or
	// clobbered shared buffer between an ISR and a task (or two ISRs).
	ClassAtomicity = "atomicity"
	// ClassErrorHandling: a failure return the firmware ignores or
	// mishandles, wedging or degrading the protocol.
	ClassErrorHandling = "error-handling"
	// ClassProtocol: frames misclassified or trusted without validation.
	ClassProtocol = "protocol"
)

// Canonical parameters of the legacy case-study entries. They originated in
// internal/experiments, which now mirrors these (it imports this package,
// so the constants must live here to avoid a cycle); every number in
// EXPERIMENTS.md and the golden Figure-5 tables uses them.
const (
	CaseISeedBase = 100
	CaseIISeed    = 7
	CaseIIISeed   = 20
)

// CaseIPeriods are the sampling periods (ms) of the five pooled Case-I
// testing runs.
var CaseIPeriods = []int{20, 40, 60, 80, 100}

// BugSeed seeds every synth.BugScenarioConfig-driven entry. Chosen once,
// like the case-study seeds; internal/synth's manifestation tests sweep
// several seeds so nothing below depends on this one being lucky.
const BugSeed = 1

// Entry is one corpus bug: a buggy/fixed scenario pair, the mining
// configuration of its monitored event type, and its ground-truth oracle.
type Entry struct {
	// Name identifies the entry in reports and baselines.
	Name string
	// Class is one of the Class* constants.
	Class string
	// Description says what the seeded bug is, one line.
	Description string
	// Runs executes the scenario and returns the testing runs to mine
	// (several entries pool more than one run, like Case I's five).
	Runs func(fixed bool) ([]*apps.Run, error)
	// IRQ is the monitored event type; Nodes the monitored node IDs;
	// LabelStyle how ranked samples print.
	IRQ    int
	Nodes  []int
	Labels core.LabelStyle
	// Oracle is the entry's ground truth.
	Oracle Oracle
	// FixedOracle, when set, replaces Oracle for fixed-run validation.
	// Hang entries need it: the failure trigger still fires — handled,
	// benignly — in the fixed firmware, so the fixed contract is the
	// absence of the hang's skip intervals, not of the trigger.
	FixedOracle Oracle
	// AbsentFixedLabel, when non-empty, names the symptom label that the
	// fixed binary must NOT define (the fix removes the buggy path
	// entirely, as in Case II's busy-drop). Fixed-run validation then
	// checks label absence instead of running the oracle, which would
	// error on every interval.
	AbsentFixedLabel string
	// ValidateFixed, when set, replaces the default fixed-run validation
	// (oracle over every monitored interval) for entries whose oracle
	// flags the trigger interleaving rather than the failure itself —
	// Case I's interleaving persists benignly in the fixed firmware, so
	// its fix is judged on delivered data. Returns the number of checks
	// performed (the liveness count).
	ValidateFixed func(runs []*apps.Run) (int, error)
}

// Catalog returns the full corpus: the three paper case studies plus six
// new seeded bugs on the internal/synth multi-hop scenarios.
func Catalog() []Entry {
	return []Entry{
		{
			Name:          "case-i-pollution",
			Class:         ClassAtomicity,
			Description:   "oscilloscope: ADC ISR pollutes the packet buffer between post and send (Figure 2)",
			Runs:          caseIRuns,
			IRQ:           dev.IRQADC,
			Nodes:         []int{apps.OscSensorID},
			Labels:        core.LabelRunSeq,
			Oracle:        OracleFunc(apps.CaseISymptom),
			ValidateFixed: caseIIntegrity,
		},
		{
			Name:             "case-ii-busy-drop",
			Class:            ClassErrorHandling,
			Description:      "forwarder: relay actively drops the packet when the radio is busy",
			Runs:             caseIIRuns,
			IRQ:              dev.IRQRadioRX,
			Nodes:            []int{apps.FwdRelayID},
			Labels:           core.LabelSeqOnly,
			Oracle:           OracleFunc(apps.CaseIISymptom),
			AbsentFixedLabel: "fwd_drop",
		},
		{
			Name:        "case-iii-hang",
			Class:       ClassErrorHandling,
			Description: "CTP heartbeat: unhandled send FAIL leaves the busy flag set forever",
			Runs:        caseIIIRuns,
			IRQ:         dev.IRQTimer0,
			Nodes:       apps.CTPSources,
			Labels:      core.LabelNodeSeq,
			Oracle:      OracleFunc(apps.CaseIIISymptom),
			FixedOracle: LabelOracle("cst_skip"),
		},
		{
			Name:        "splash-lrt",
			Class:       ClassAtomicity,
			Description: "Splash flood: lost update on the recovery-timer countdown fires spurious recoveries",
			Runs:        bugRuns(synth.SplashLRT),
			IRQ:         synth.SplashLRTIRQ,
			Nodes:       apps.SplashLeaves,
			Labels:      core.LabelNodeSeq,
			Oracle:      LabelOracle("lrt_fire"),
		},
		{
			Name:        "splash-root-hang",
			Class:       ClassErrorHandling,
			Description: "Splash root: a rejected round start is never cleared and dissemination wedges",
			Runs:        bugRuns(synth.SplashRootHang),
			IRQ:         synth.SplashRootHangIRQ,
			Nodes:       []int{apps.SplashRootID},
			Labels:      core.LabelSeqOnly,
			Oracle:      HangOracle(synth.SplashRootHangIRQ, "rh_fail", "rh_skip"),
			FixedOracle: LabelOracle("rh_skip"),
		},
		{
			Name:        "tree-incons",
			Class:       ClassAtomicity,
			Description: "CTP tree: torn (parent, hop) read pairs one parent's id with the other's hop",
			Runs:        bugRuns(synth.TreeIncons),
			IRQ:         synth.TreeInconsIRQ,
			Nodes:       []int{apps.TreeLeafID},
			Labels:      core.LabelSeqOnly,
			Oracle:      LabelOracle("tr_incons"),
		},
		{
			Name:        "fp-ack",
			Class:       ClassProtocol,
			Description: "ACK forwarder: relay accepts any frame as the awaited ACK without checking its type",
			Runs:        bugRuns(synth.FPAck),
			IRQ:         synth.FPAckIRQ,
			Nodes:       []int{apps.FPAckRelayID},
			Labels:      core.LabelSeqOnly,
			Oracle:      LabelOracle("ack_unexpected"),
		},
		{
			Name:        "scratch-clobber",
			Class:       ClassAtomicity,
			Description: "custom app: sensor ISR clobbers the digest's shared scratch buffer",
			Runs:        bugRuns(synth.ScratchClobber),
			IRQ:         synth.ScratchIRQ,
			Nodes:       []int{apps.ScratchNodeID},
			Labels:      core.LabelSeqOnly,
			Oracle:      LabelOracle("dg_corrupted"),
		},
		{
			Name:        "scratch-clobber-mi",
			Class:       ClassAtomicity,
			Description: "custom app, multi-IRQ: motion and vibration ISRs race the same digest window",
			Runs:        bugRuns(synth.ScratchClobberMI),
			IRQ:         synth.ScratchIRQ,
			Nodes:       []int{apps.ScratchNodeID},
			Labels:      core.LabelSeqOnly,
			Oracle:      LabelOracle("dg_corrupted"),
		},
	}
}

// bugRuns lifts a synth seeded-bug runner into an Entry.Runs.
func bugRuns(run func(synth.BugScenarioConfig) (*apps.Run, error)) func(bool) ([]*apps.Run, error) {
	return func(fixed bool) ([]*apps.Run, error) {
		r, err := run(synth.BugScenarioConfig{Seed: BugSeed, Fixed: fixed})
		if err != nil {
			return nil, err
		}
		return []*apps.Run{r}, nil
	}
}

// caseIRuns pools the five Case-I testing runs (D = 20..100 ms), exactly as
// experiments.CaseI does.
func caseIRuns(fixed bool) ([]*apps.Run, error) {
	runs := make([]*apps.Run, len(CaseIPeriods))
	for i, d := range CaseIPeriods {
		var err error
		runs[i], err = apps.RunOscilloscope(apps.OscConfig{PeriodMS: d, Seconds: 10, Seed: CaseISeedBase + uint64(i), Fixed: fixed})
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// caseIIntegrity is Case I's fixed-side validation: no polluted packet may
// reach the sink (apps.PollutedDeliveries), since the oracle's interleaving
// still occurs — benignly — in the race-free firmware.
func caseIIntegrity(runs []*apps.Run) (int, error) {
	checked := 0
	for i, run := range runs {
		polluted, total := apps.PollutedDeliveries(run, CaseISeedBase+uint64(i))
		if polluted > 0 {
			return 0, fmt.Errorf("fixed run %d delivered %d/%d polluted packets — the fix no longer fixes", i+1, polluted, total)
		}
		checked += total
	}
	if checked == 0 {
		return 0, fmt.Errorf("fixed runs delivered nothing — a dead scenario proves nothing")
	}
	return checked, nil
}

func caseIIRuns(fixed bool) ([]*apps.Run, error) {
	run, err := apps.RunForwarder(apps.ForwarderConfig{Seconds: 20, Seed: CaseIISeed, Fixed: fixed})
	if err != nil {
		return nil, err
	}
	return []*apps.Run{run}, nil
}

func caseIIIRuns(fixed bool) ([]*apps.Run, error) {
	run, err := apps.RunCTPHeartbeat(apps.CTPConfig{Seconds: 15, Seed: CaseIIISeed, Fixed: fixed})
	if err != nil {
		return nil, err
	}
	return []*apps.Run{run}, nil
}
