package core

import (
	"fmt"
	"sort"
	"strings"

	"sentomist/internal/feature"
	"sentomist/internal/isa"
	"sentomist/internal/lifecycle"
	"sentomist/internal/trace"
)

// SymbolCount is one row of an interval inspection: how many instructions
// executed inside one labeled region (function) of the program during the
// interval window.
type SymbolCount struct {
	Symbol string
	Count  uint64
}

// SymbolCounts aggregates an interval's instruction counter by program
// symbol, highest count first — the first thing a human inspects about a
// top-ranked interval ("which code ran, and how much of it").
func SymbolCounts(t *trace.Trace, prog *isa.Program, iv lifecycle.Interval) ([]SymbolCount, error) {
	counter, err := feature.NewExtractor(t).CounterSparse(iv)
	if err != nil {
		return nil, err
	}
	totals := make(map[string]uint64)
	for k, pc := range counter.Idx {
		c := counter.Val[k]
		sym := prog.SymbolAt(uint16(pc))
		sym = strings.SplitN(sym, "+", 2)[0]
		if sym == "" {
			sym = fmt.Sprintf("%#04x", pc)
		}
		totals[sym] += uint64(c)
	}
	out := make([]SymbolCount, 0, len(totals))
	for sym, c := range totals {
		out = append(out, SymbolCount{Symbol: sym, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Symbol < out[j].Symbol
	})
	return out, nil
}

// AnnotatedListing renders the instructions an interval executed as an
// annotated disassembly: per-instruction execution counts beside the
// assembly text, grouped under their symbols — the "thorough manual
// inspection" artifact the paper's rankings direct a developer to.
// Instructions that never executed inside the window are elided.
func AnnotatedListing(t *trace.Trace, prog *isa.Program, iv lifecycle.Interval) (string, error) {
	counter, err := feature.NewExtractor(t).CounterSparse(iv)
	if err != nil {
		return "", err
	}
	if counter.Dim != len(prog.Code) {
		return "", fmt.Errorf("core: counter has %d dims, program has %d instructions",
			counter.Dim, len(prog.Code))
	}
	var b strings.Builder
	lastSym := ""
	for k, pc := range counter.Idx {
		c := counter.Val[k]
		sym := strings.SplitN(prog.SymbolAt(uint16(pc)), "+", 2)[0]
		if sym != lastSym {
			fmt.Fprintf(&b, "%s:\n", sym)
			lastSym = sym
		}
		line := ""
		if n := prog.Lines[uint16(pc)]; n > 0 {
			line = fmt.Sprintf("  ; line %d", n)
		}
		fmt.Fprintf(&b, "  %#04x  %6.0f×  %s%s\n", pc, c, prog.Code[pc], line)
	}
	return b.String(), nil
}

// DescribeInterval renders an interval's lifecycle item window — the
// pattern the paper quotes when motivating outliers ("ADC interrupt,
// posting a task, interrupt exit, ADC interrupt, interrupt exit, running
// the task").
func DescribeInterval(t *trace.Trace, iv lifecycle.Interval) (string, error) {
	nt := t.Node(iv.Node)
	if nt == nil {
		return "", fmt.Errorf("core: no trace for node %d", iv.Node)
	}
	seq := lifecycle.NewSequence(nt)
	items := seq.Items()
	if iv.StartItem >= len(items) || iv.EndItem >= len(items) {
		return "", fmt.Errorf("core: interval items out of range")
	}
	var b strings.Builder
	// Walk by marker position, not item index: interrupts preempting the
	// instance's final task lie after its runTask item but inside its
	// wall-clock window, and a reader inspecting the interval needs them.
	for i := iv.StartItem; i < len(items) && items[i].Marker <= iv.EndMarker; i++ {
		if i > iv.StartItem {
			b.WriteString(", ")
		}
		switch kind := items[i].Kind; kind {
		case trace.Int:
			fmt.Fprintf(&b, "int(%d)", items[i].Arg)
		case trace.Reti:
			b.WriteString("reti")
		case trace.PostTask:
			fmt.Fprintf(&b, "postTask(%d)", items[i].Arg)
		case trace.RunTask:
			fmt.Fprintf(&b, "runTask(%d)", items[i].Arg)
		}
	}
	return b.String(), nil
}
