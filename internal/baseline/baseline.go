// Package baseline implements the comparison points the paper positions
// Sentomist against:
//
//   - A Dustminer-style discriminative pattern miner (Khan et al., SenSys
//     2008): given log segments labeled good/bad BY A HUMAN, find the event
//     n-grams most characteristic of bad segments. Its need for labeled
//     segments is precisely the manual effort Sentomist removes; the
//     benchmark uses ground-truth oracles as a stand-in for that human.
//   - Brute-force inspection cost models: how many intervals a human
//     examines before the first symptom without any ranking.
//   - A random "detector" plugging into the outlier.Detector interface as
//     the null hypothesis for the detector ablation.
package baseline

import (
	"fmt"
	"sort"

	"sentomist/internal/lifecycle"
	"sentomist/internal/randx"
	"sentomist/internal/trace"
)

// Event is one lifecycle item reduced to its discrete identity, the token
// alphabet for pattern mining.
type Event struct {
	Kind trace.Kind
	Arg  int
}

// String renders the token.
func (e Event) String() string {
	switch e.Kind {
	case trace.Int:
		return fmt.Sprintf("int(%d)", e.Arg)
	case trace.Reti:
		return "reti"
	default:
		return fmt.Sprintf("%s(%d)", e.Kind, e.Arg)
	}
}

// Segment is one labeled log segment.
type Segment struct {
	Events []Event
	Bad    bool
}

// SegmentOfInterval converts an interval's item window into a segment.
func SegmentOfInterval(seq *lifecycle.Sequence, iv lifecycle.Interval, bad bool) Segment {
	items := seq.Items()
	var events []Event
	for i := iv.StartItem; i <= iv.EndItem && i < len(items); i++ {
		events = append(events, Event{Kind: items[i].Kind, Arg: items[i].Arg})
	}
	return Segment{Events: events, Bad: bad}
}

// Pattern is a mined discriminative n-gram.
type Pattern struct {
	Events []Event
	// BadFrac and GoodFrac are the fractions of bad/good segments
	// containing the pattern.
	BadFrac, GoodFrac float64
	// Score is BadFrac - GoodFrac; high scores discriminate failures.
	Score float64
}

// String renders the pattern.
func (p Pattern) String() string {
	s := ""
	for i, e := range p.Events {
		if i > 0 {
			s += " "
		}
		s += e.String()
	}
	return fmt.Sprintf("[%s] bad=%.2f good=%.2f score=%.2f", s, p.BadFrac, p.GoodFrac, p.Score)
}

// Discriminative mines n-grams of length 2..maxN and returns the k patterns
// whose segment frequency differs most between bad and good segments,
// highest score first. It returns an error when either class is empty —
// the method fundamentally needs both labels, which is its key limitation
// against Sentomist.
func Discriminative(segments []Segment, maxN, k int) ([]Pattern, error) {
	var good, bad int
	for _, s := range segments {
		if s.Bad {
			bad++
		} else {
			good++
		}
	}
	if good == 0 || bad == 0 {
		return nil, fmt.Errorf("baseline: discriminative mining needs both good (%d) and bad (%d) segments", good, bad)
	}
	if maxN < 2 {
		maxN = 2
	}
	type counts struct {
		good, bad int
		events    []Event
	}
	table := make(map[string]*counts)
	for _, seg := range segments {
		seen := make(map[string]bool)
		for n := 2; n <= maxN; n++ {
			for i := 0; i+n <= len(seg.Events); i++ {
				gram := seg.Events[i : i+n]
				key := gramKey(gram)
				if seen[key] {
					continue
				}
				seen[key] = true
				c := table[key]
				if c == nil {
					c = &counts{events: append([]Event(nil), gram...)}
					table[key] = c
				}
				if seg.Bad {
					c.bad++
				} else {
					c.good++
				}
			}
		}
	}
	patterns := make([]Pattern, 0, len(table))
	for _, c := range table {
		p := Pattern{
			Events:   c.events,
			BadFrac:  float64(c.bad) / float64(bad),
			GoodFrac: float64(c.good) / float64(good),
		}
		p.Score = p.BadFrac - p.GoodFrac
		patterns = append(patterns, p)
	}
	sort.Slice(patterns, func(i, j int) bool {
		if patterns[i].Score != patterns[j].Score {
			return patterns[i].Score > patterns[j].Score
		}
		// Prefer longer, then lexicographically stable, patterns.
		if len(patterns[i].Events) != len(patterns[j].Events) {
			return len(patterns[i].Events) > len(patterns[j].Events)
		}
		return gramKey(patterns[i].Events) < gramKey(patterns[j].Events)
	})
	if k > 0 && k < len(patterns) {
		patterns = patterns[:k]
	}
	return patterns, nil
}

func gramKey(gram []Event) string {
	key := ""
	for _, e := range gram {
		key += fmt.Sprintf("%d:%d|", e.Kind, e.Arg)
	}
	return key
}

// ExpectedBruteForceInspections is the expected number of intervals a
// human inspects before hitting the first of s symptomatic intervals among
// n, examining in uniformly random order: (n+1)/(s+1).
func ExpectedBruteForceInspections(n, s int) float64 {
	if s <= 0 {
		return float64(n)
	}
	return float64(n+1) / float64(s+1)
}

// Random is the null-hypothesis detector: uniformly random scores. It
// implements outlier.Detector's contract (lower = more suspicious) with no
// information at all.
type Random struct {
	Seed uint64
}

// Name implements outlier.Detector.
func (Random) Name() string { return "random" }

// Score implements outlier.Detector.
func (r Random) Score(samples [][]float64) ([]float64, error) {
	rng := randx.New(r.Seed + 0x5eed)
	scores := make([]float64, len(samples))
	for i := range scores {
		scores[i] = rng.Float64()
	}
	return scores, nil
}
