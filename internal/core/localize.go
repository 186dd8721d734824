package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"sentomist/internal/feature"
	"sentomist/internal/isa"
)

// Localization implements the paper's stated future work (Section VII):
// "extending Sentomist for achieving bug localization, i.e., locating bugs
// in source code level, by adopting the symptom-mining approach to
// correlate bug symptoms with source codes."
//
// The approach: split the mined samples into suspicious and normal sets by
// their outlier scores, then score every instruction dimension by how
// strongly the suspicious intervals deviate from normal behaviour there —
// a standardized mean difference. Instructions that only ever execute in
// suspicious intervals (the buggy path itself) or whose counts inflate
// under the buggy interleaving surface at the top, annotated with their
// symbol and source line.

// LocalizeConfig parameterizes Localize.
type LocalizeConfig struct {
	// SuspectCount takes the top-k ranked samples as the suspicious
	// set. When 0, every sample with a meaningfully negative score
	// (below -1e-4 after normalization) is suspicious — the detector's
	// own boundary, ignoring numerical dust at the margin.
	SuspectCount int
	// MaxResults caps the returned lines; 0 means 25.
	MaxResults int
}

// LineSuspicion is one localized code location.
type LineSuspicion struct {
	// PC is the instruction address.
	PC uint16
	// Symbol is the enclosing label (function) and Line the assembly
	// source line, when the program carries that metadata.
	Symbol string
	Line   int
	// Score is the standardized mean difference between suspicious and
	// normal executions of this instruction (higher = more implicated).
	Score float64
	// SuspectMean and NormalMean are the per-interval execution-count
	// means in the two sets.
	SuspectMean, NormalMean float64
	// OnlySuspect marks instructions that never execute in any normal
	// interval — the strongest possible implication.
	OnlySuspect bool
}

// String renders the suspicion row.
func (l LineSuspicion) String() string {
	loc := l.Symbol
	if loc == "" {
		loc = fmt.Sprintf("%#04x", l.PC)
	}
	if l.Line > 0 {
		loc = fmt.Sprintf("%s (line %d)", loc, l.Line)
	}
	marker := ""
	if l.OnlySuspect {
		marker = "  [suspect-only path]"
	}
	return fmt.Sprintf("%-24s score=%8.2f suspect=%7.1f normal=%7.1f%s",
		loc, l.Score, l.SuspectMean, l.NormalMean, marker)
}

// ErrNoSuspects is returned when the ranking contains no suspicious
// samples to localize from.
var ErrNoSuspects = errors.New("core: no suspicious samples (no negative scores and SuspectCount is 0)")

// Localize correlates the ranking's suspicious intervals with program
// instructions. It must be given the same runs the ranking was mined from;
// all intervals must come from nodes running prog.
func Localize(runs []RunInput, ranking *Ranking, prog *isa.Program, cfg LocalizeConfig) ([]LineSuspicion, error) {
	if len(ranking.Samples) == 0 {
		return nil, fmt.Errorf("core: empty ranking")
	}
	suspects := cfg.SuspectCount
	if suspects == 0 {
		const margin = -1e-4
		for _, s := range ranking.Samples {
			if s.Score < margin {
				suspects++
			}
		}
		if suspects == 0 {
			return nil, ErrNoSuspects
		}
	}
	if suspects >= len(ranking.Samples) {
		return nil, fmt.Errorf("core: %d suspects leave no normal samples among %d", suspects, len(ranking.Samples))
	}
	maxResults := cfg.MaxResults
	if maxResults <= 0 {
		maxResults = 25
	}

	extractors := make([]*feature.Extractor, len(runs))
	for i, run := range runs {
		if run.Trace == nil {
			return nil, fmt.Errorf("core: run %d has no trace", i+1)
		}
		extractors[i] = feature.NewExtractor(run.Trace)
	}

	dim := len(prog.Code)
	var (
		suspSum  = make([]float64, dim)
		normSum  = make([]float64, dim)
		normSq   = make([]float64, dim)
		suspN, n float64
	)
	for rank, s := range ranking.Samples {
		if s.Run < 1 || s.Run > len(extractors) {
			return nil, fmt.Errorf("core: sample references run %d of %d", s.Run, len(extractors))
		}
		v, err := extractors[s.Run-1].CounterSparse(s.Interval)
		if err != nil {
			return nil, err
		}
		if v.Dim != dim {
			return nil, fmt.Errorf("core: counter has %d dims, program has %d instructions", v.Dim, dim)
		}
		// Zero cells add nothing to a sum that starts at +0, so summing
		// the nonzero cells alone gives the same totals bit for bit.
		if rank < suspects {
			suspN++
			for k, d := range v.Idx {
				suspSum[d] += v.Val[k]
			}
			continue
		}
		n++
		for k, d := range v.Idx {
			c := v.Val[k]
			normSum[d] += c
			normSq[d] += c * c
		}
	}

	var out []LineSuspicion
	for d := 0; d < dim; d++ {
		suspMean := suspSum[d] / suspN
		normMean := normSum[d] / n
		if suspMean == 0 && normMean == 0 {
			continue
		}
		variance := normSq[d]/n - normMean*normMean
		if variance < 0 {
			variance = 0
		}
		const eps = 0.05 // damping for never-varying dimensions
		score := math.Abs(suspMean-normMean) / (math.Sqrt(variance) + eps)
		if score == 0 {
			continue
		}
		ls := LineSuspicion{
			PC:          uint16(d),
			Symbol:      strings.SplitN(prog.SymbolAt(uint16(d)), "+", 2)[0],
			Score:       score,
			SuspectMean: suspMean,
			NormalMean:  normMean,
			OnlySuspect: normMean == 0 && suspMean > 0,
		}
		if prog.Lines != nil {
			ls.Line = prog.Lines[uint16(d)]
		}
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].OnlySuspect != out[j].OnlySuspect {
			return out[i].OnlySuspect
		}
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].PC < out[j].PC
	})
	if len(out) > maxResults {
		out = out[:maxResults]
	}
	return out, nil
}

// LocalizeReport renders suspicions grouped by symbol: the per-function
// view a developer reads first.
func LocalizeReport(suspicions []LineSuspicion) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %10s %10s %10s\n", "Location", "Score", "Suspect", "Normal")
	for _, l := range suspicions {
		loc := l.Symbol
		if loc == "" {
			loc = fmt.Sprintf("%#04x", l.PC)
		}
		if l.Line > 0 {
			loc = fmt.Sprintf("%s:%d", loc, l.Line)
		}
		if l.OnlySuspect {
			loc += " *"
		}
		fmt.Fprintf(&b, "%-24s %10.2f %10.1f %10.1f\n", loc, l.Score, l.SuspectMean, l.NormalMean)
	}
	if len(suspicions) > 0 {
		b.WriteString("(* = executes only in suspicious intervals)\n")
	}
	return b.String()
}
