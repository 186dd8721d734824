package bench

import (
	"fmt"
	"math"
	"strings"

	"sentomist/internal/apps"
	"sentomist/internal/core"
	"sentomist/internal/lifecycle"
)

// PrecisionKs are the ranking depths every Result reports precision at.
var PrecisionKs = []int{1, 3, 5, 10}

// Result is one entry's measured ranking quality plus the fixed-side half
// of its contract.
type Result struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Samples     int    `json:"samples"`
	Symptomatic int    `json:"symptomatic"`
	// FirstRank is the 1-based rank of the first ground-truth symptomatic
	// interval in the mined ranking.
	FirstRank int `json:"first_rank"`
	// PrecisionAt[i] is the fraction of the top min(PrecisionKs[i], Samples)
	// ranks that are truly symptomatic.
	PrecisionAt []float64 `json:"precision_at"`
	// ReciprocalRank is 1/FirstRank; per-class MRR averages it.
	ReciprocalRank float64 `json:"reciprocal_rank"`
	// FixedChecked counts the fixed-run checks that passed symptom-free —
	// monitored intervals for most entries, delivered packets for entries
	// with a custom ValidateFixed (the liveness half of the contract: a
	// dead fixed scenario proves nothing).
	FixedChecked int `json:"fixed_checked"`
}

// ClassResult aggregates the entries of one bug class: arithmetic mean of
// each precision@k and the mean reciprocal rank.
type ClassResult struct {
	Class       string    `json:"class"`
	Entries     int       `json:"entries"`
	PrecisionAt []float64 `json:"precision_at"`
	MRR         float64   `json:"mrr"`
}

// Report is the harness output: per-entry results in catalog order and
// per-class aggregates in first-appearance order. Every float is rounded
// to six decimals so a marshaled Report is byte-deterministic and can be
// compared exactly against the checked-in baseline.
type Report struct {
	PrecisionKs []int         `json:"precision_ks"`
	Entries     []Result      `json:"entries"`
	Classes     []ClassResult `json:"classes"`
}

// round6 keeps baseline comparison exact: all metrics are ratios of small
// integers, so six decimals lose nothing that could flip a verdict.
func round6(x float64) float64 {
	return math.Round(x*1e6) / 1e6
}

// Evaluate runs one entry end to end with the paper's default mining mode:
// record the buggy and fixed runs and enforce the fixed half of the
// contract (no symptomatic interval, or symptom label absent), then mine
// the buggy runs, judge every ranked sample with the oracle, and score
// precision@k and the reciprocal rank.
func Evaluate(e Entry) (*Result, error) {
	rec, err := record(e)
	if err != nil {
		return nil, err
	}
	res, _, err := rec.score(Arm{})
	return res, err
}

// recording is one entry's buggy runs, recorded once, whose fixed runs
// have passed the fixed half of the contract. score mines the buggy runs
// by any arm; the oracle's verdict on an interval is judged once and
// shared by every arm.
type recording struct {
	e            Entry
	runs         []*apps.Run
	fixedChecked int
	verdicts     map[runInterval]bool
}

// runInterval identifies a ranked sample: its 1-based run and interval.
type runInterval struct {
	run int
	iv  lifecycle.Interval
}

// record records e's buggy and fixed runs and validates the fixed ones.
func record(e Entry) (*recording, error) {
	runs, err := e.Runs(false)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: buggy runs: %w", e.Name, err)
	}
	fixedRuns, err := e.Runs(true)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: fixed runs: %w", e.Name, err)
	}
	var checked int
	if e.ValidateFixed != nil {
		checked, err = e.ValidateFixed(fixedRuns)
	} else {
		checked, err = validateFixed(e, fixedRuns)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", e.Name, err)
	}
	return &recording{e: e, runs: runs, fixedChecked: checked, verdicts: map[runInterval]bool{}}, nil
}

// score mines the buggy runs by arm and judges the ranking. It returns the
// result and the oracle's verdict on each rank, most suspicious first.
func (r *recording) score(arm Arm) (*Result, []bool, error) {
	e := r.e
	inputs := make([]core.RunInput, len(r.runs))
	for i, run := range r.runs {
		inputs[i] = core.RunInput{Trace: run.Trace, Programs: run.Programs}
	}
	ranking, err := core.Mine(inputs, core.Config{
		IRQ: e.IRQ, Nodes: e.Nodes, Labels: e.Labels,
		Feature: arm.Feature, Detector: arm.Detector,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: %s: mine: %w", e.Name, err)
	}
	verdicts := make([]bool, len(ranking.Samples))
	res := &Result{Name: e.Name, Class: e.Class, Samples: len(ranking.Samples), FixedChecked: r.fixedChecked}
	for i, s := range ranking.Samples {
		key := runInterval{s.Run, s.Interval}
		sym, ok := r.verdicts[key]
		if !ok {
			if sym, err = e.Oracle.Symptom(r.runs[s.Run-1], s.Interval); err != nil {
				return nil, nil, fmt.Errorf("bench: %s: oracle: %w", e.Name, err)
			}
			r.verdicts[key] = sym
		}
		verdicts[i] = sym
		if sym {
			res.Symptomatic++
			if res.FirstRank == 0 {
				res.FirstRank = i + 1
			}
		}
	}
	if res.Symptomatic == 0 {
		return nil, nil, fmt.Errorf("bench: %s: buggy run mined %d intervals but the oracle found no symptom — the seeded bug no longer manifests", e.Name, res.Samples)
	}
	for _, k := range PrecisionKs {
		res.PrecisionAt = append(res.PrecisionAt, round6(precisionAt(verdicts, k)))
	}
	res.ReciprocalRank = round6(1 / float64(res.FirstRank))
	return res, verdicts, nil
}

// precisionAt is the symptomatic fraction of the top min(k, len(verdicts))
// ranks. verdicts is in rank order (most suspicious first).
func precisionAt(verdicts []bool, k int) float64 {
	n := min(k, len(verdicts))
	if n == 0 {
		return 0
	}
	hits := 0
	for _, v := range verdicts[:n] {
		if v {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// validateFixed enforces the fixed half of the corpus contract and returns
// the number of monitored intervals it checked. For AbsentFixedLabel
// entries the oracle cannot run over the fixed binary (its label lookup
// would error on every interval — correctly, the buggy path is gone), so
// the check is the stronger one: the label must be absent from the fixed
// binary of every monitored node.
func validateFixed(e Entry, runs []*apps.Run) (int, error) {
	orc := e.Oracle
	if e.FixedOracle != nil {
		orc = e.FixedOracle
	}
	judged := 0
	for ri, run := range runs {
		if e.AbsentFixedLabel != "" {
			for _, node := range e.Nodes {
				prog := run.Program(node)
				if prog == nil {
					return 0, fmt.Errorf("fixed run %d has no program for node %d", ri+1, node)
				}
				if _, err := apps.LabelPC(prog, e.AbsentFixedLabel); err == nil {
					return 0, fmt.Errorf("fixed run %d still defines symptom label %q on node %d", ri+1, e.AbsentFixedLabel, node)
				}
			}
		}
		ivs, err := lifecycle.ExtractTrace(run.Trace)
		if err != nil {
			return 0, fmt.Errorf("fixed run %d: %w", ri+1, err)
		}
		for _, iv := range ivs {
			if iv.IRQ != e.IRQ || !iv.Complete || !nodeMonitored(e.Nodes, iv.Node) {
				continue
			}
			if e.AbsentFixedLabel == "" {
				sym, err := orc.Symptom(run, iv)
				if err != nil {
					return 0, fmt.Errorf("fixed run %d oracle: %w", ri+1, err)
				}
				if sym {
					return 0, fmt.Errorf("fixed run %d shows a symptomatic interval (node %d seq %d) — the fix no longer fixes", ri+1, iv.Node, iv.Seq)
				}
			}
			judged++
		}
	}
	if judged == 0 {
		return 0, fmt.Errorf("fixed runs produced no monitored intervals — a dead scenario proves nothing")
	}
	return judged, nil
}

func nodeMonitored(nodes []int, id int) bool {
	if len(nodes) == 0 {
		return true
	}
	for _, n := range nodes {
		if n == id {
			return true
		}
	}
	return false
}

// EvaluateAll evaluates every entry and aggregates per class.
func EvaluateAll(entries []Entry) (*Report, error) {
	rep := &Report{PrecisionKs: PrecisionKs}
	for _, e := range entries {
		r, err := Evaluate(e)
		if err != nil {
			return nil, err
		}
		rep.Entries = append(rep.Entries, *r)
	}
	rep.Classes = aggregateClasses(rep.Entries)
	return rep, nil
}

// aggregateClasses means the per-entry metrics of each class, in
// first-appearance order.
func aggregateClasses(entries []Result) []ClassResult {
	var order []string
	byClass := map[string][]Result{}
	for _, r := range entries {
		if _, ok := byClass[r.Class]; !ok {
			order = append(order, r.Class)
		}
		byClass[r.Class] = append(byClass[r.Class], r)
	}
	var out []ClassResult
	for _, class := range order {
		rs := byClass[class]
		c := ClassResult{Class: class, Entries: len(rs), PrecisionAt: make([]float64, len(PrecisionKs))}
		for _, r := range rs {
			for i := range PrecisionKs {
				c.PrecisionAt[i] += r.PrecisionAt[i]
			}
			c.MRR += r.ReciprocalRank
		}
		for i := range c.PrecisionAt {
			c.PrecisionAt[i] = round6(c.PrecisionAt[i] / float64(len(rs)))
		}
		c.MRR = round6(c.MRR / float64(len(rs)))
		out = append(out, c)
	}
	return out
}

// Format renders the report for humans: one row per entry, then the
// per-class aggregates.
func (rep *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-15s %8s %8s %6s", "Entry", "Class", "Samples", "Symptom", "First")
	for _, k := range rep.PrecisionKs {
		fmt.Fprintf(&b, "  P@%-4d", k)
	}
	fmt.Fprintf(&b, "\n")
	for _, r := range rep.Entries {
		fmt.Fprintf(&b, "%-20s %-15s %8d %8d %6d", r.Name, r.Class, r.Samples, r.Symptomatic, r.FirstRank)
		for _, p := range r.PrecisionAt {
			fmt.Fprintf(&b, "  %.3f", p)
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "\n%-20s %8s %8s", "Class", "Entries", "MRR")
	for _, k := range rep.PrecisionKs {
		fmt.Fprintf(&b, "  P@%-4d", k)
	}
	fmt.Fprintf(&b, "\n")
	for _, c := range rep.Classes {
		fmt.Fprintf(&b, "%-20s %8d %8.3f", c.Class, c.Entries, c.MRR)
		for _, p := range c.PrecisionAt {
			fmt.Fprintf(&b, "  %.3f", p)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
