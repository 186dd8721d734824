package bench

import (
	"fmt"
	"strings"

	"sentomist/internal/baseline"
	"sentomist/internal/core"
	"sentomist/internal/outlier"
	"sentomist/internal/svm"
)

// Arm is one mining mode of the ablation matrix: a feature kind and an
// outlier detector. The zero value is the paper's default, Definition 4's
// instruction counter scored by the RBF one-class SVM; Evaluate mines with
// it.
type Arm struct {
	Name     string
	Feature  core.FeatureKind
	Detector outlier.Detector
}

// Arms are the columns of the ablation matrix: the paper's default, the
// detector alternatives on its counter (A1, A3) and the cruder features
// under its detector (A2). docs/PERFORMANCE.md, "Decision record: mining
// modes that earn their place", says why each is here.
func Arms() []Arm {
	return []Arm{
		{Name: "svm"},
		{Name: "svm-linear", Detector: outlier.OneClassSVM{Kernel: svm.Linear{}}},
		{Name: "pca", Detector: outlier.PCA{}},
		{Name: "mahalanobis", Detector: outlier.Mahalanobis{}},
		{Name: "random", Detector: baseline.Random{Seed: 1}},
		{Name: "func-count", Feature: core.FeatureFuncCount},
		{Name: "duration", Feature: core.FeatureDuration},
		{Name: "stack-depth", Feature: core.FeatureStackDepth},
	}
}

// Cell is one entry mined by one arm.
type Cell struct {
	// FirstRank is the 1-based rank of the first symptomatic interval.
	FirstRank int
	// Top5 counts the symptomatic intervals among the top 5 ranks.
	Top5 int
}

// Matrix is every catalog entry mined by every arm, plus each arm's MRR
// per bug class.
type Matrix struct {
	Arms    []string
	Entries []string
	// Cells[i][j] is entry i mined by arm j.
	Cells [][]Cell
	// Classes are the bug classes in first-appearance order; MRR[c][j] is
	// arm j's mean reciprocal rank over the entries of class c.
	Classes []string
	MRR     [][]float64
}

// EvaluateMatrix records each entry's buggy and fixed runs once, validates
// the fixed ones, and mines the buggy runs once per arm.
func EvaluateMatrix(entries []Entry, arms []Arm) (*Matrix, error) {
	m := &Matrix{}
	for _, a := range arms {
		m.Arms = append(m.Arms, a.Name)
	}
	perArm := make([][]Result, len(arms))
	for _, e := range entries {
		rec, err := record(e)
		if err != nil {
			return nil, err
		}
		row := make([]Cell, len(arms))
		for j, a := range arms {
			res, verdicts, err := rec.score(a)
			if err != nil {
				return nil, fmt.Errorf("%w (arm %s)", err, a.Name)
			}
			row[j].FirstRank = res.FirstRank
			for _, v := range verdicts[:min(5, len(verdicts))] {
				if v {
					row[j].Top5++
				}
			}
			perArm[j] = append(perArm[j], *res)
		}
		m.Entries = append(m.Entries, e.Name)
		m.Cells = append(m.Cells, row)
	}
	for j := range arms {
		for c, cr := range aggregateClasses(perArm[j]) {
			if j == 0 {
				m.Classes = append(m.Classes, cr.Class)
				m.MRR = append(m.MRR, make([]float64, len(arms)))
			}
			m.MRR[c][j] = cr.MRR
		}
	}
	return m, nil
}

// Format renders the matrix as text: one row per entry, each cell the
// first symptom's rank / the symptoms in the top 5, then each arm's MRR
// per bug class.
func (m *Matrix) Format() string {
	var b strings.Builder
	header := func(first string) {
		fmt.Fprintf(&b, "%-20s", first)
		for _, a := range m.Arms {
			fmt.Fprintf(&b, " %12s", a)
		}
		b.WriteByte('\n')
	}
	header("entry")
	for i, name := range m.Entries {
		fmt.Fprintf(&b, "%-20s", name)
		for _, c := range m.Cells[i] {
			fmt.Fprintf(&b, " %12s", fmt.Sprintf("%d/%d", c.FirstRank, c.Top5))
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	header("MRR by class")
	for c, class := range m.Classes {
		fmt.Fprintf(&b, "%-20s", class)
		for _, v := range m.MRR[c] {
			fmt.Fprintf(&b, " %12.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
