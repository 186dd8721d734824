package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sentomist"
)

// caseStudy is one of the paper's case studies (§VI): its recording
// defaults and the event type, nodes and label style it is mined with.
type caseStudy struct {
	name    string
	seconds float64
	seed    uint64
	irq     int
	nodes   []int
	labels  sentomist.LabelStyle
	// periods are the sampling periods (ms) case records one run each of,
	// seeded seed, seed+1, ...; nil records a single run.
	periods []int
	record  func(p recordParams) (*sentomist.Run, error)
	// summary is the one-line description case prints per run.
	summary func(r *sentomist.Run) string
}

type recordParams struct {
	seconds  float64
	seed     uint64
	fixed    bool
	periodMS int
}

var caseStudies = []caseStudy{
	{
		name: "I", seconds: 10, seed: 100,
		irq: sentomist.IRQADC, nodes: []int{sentomist.CaseISensorID}, labels: sentomist.LabelRunSeq,
		periods: []int{20, 40, 60, 80, 100},
		record: func(p recordParams) (*sentomist.Run, error) {
			return sentomist.RunCaseI(sentomist.CaseIConfig{
				PeriodMS: p.periodMS, Seconds: p.seconds, Seed: p.seed, Fixed: p.fixed,
			})
		},
		summary: func(r *sentomist.Run) string {
			return fmt.Sprintf("%d deliveries", len(r.Net.Deliveries()))
		},
	},
	{
		name: "II", seconds: 20, seed: 7,
		irq: sentomist.IRQRadioRX, nodes: []int{sentomist.CaseIIRelayID}, labels: sentomist.LabelSeqOnly,
		record: func(p recordParams) (*sentomist.Run, error) {
			return sentomist.RunCaseII(sentomist.CaseIIConfig{Seconds: p.seconds, Seed: p.seed, Fixed: p.fixed})
		},
		summary: func(r *sentomist.Run) string {
			drops, _ := r.RAM(sentomist.CaseIIRelayID, "dropcnt")
			return fmt.Sprintf("relay forwarded with %d active drops; %d deliveries", drops, len(r.Net.Deliveries()))
		},
	},
	{
		name: "III", seconds: 15, seed: 20,
		irq: sentomist.IRQTimer0, nodes: sentomist.CaseIIISources(), labels: sentomist.LabelNodeSeq,
		record: func(p recordParams) (*sentomist.Run, error) {
			return sentomist.RunCaseIII(sentomist.CaseIIIConfig{Seconds: p.seconds, Seed: p.seed, Fixed: p.fixed})
		},
		summary: func(r *sentomist.Run) string {
			fails := 0
			for id := 1; id <= 8; id++ {
				f, _ := r.RAM(id, "failcnt")
				fails += int(f)
			}
			return fmt.Sprintf("network ran with %d unhandled send failures; %d deliveries", fails, len(r.Net.Deliveries()))
		},
	},
}

// caseFlags select a case study and its recording parameters; case and
// record share them.
type caseFlags struct {
	study   string
	seconds float64
	seed    uint64
	fixed   bool
}

func (c *caseFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.study, "case", "I", "case study: I (data pollution), II (packet loss), III (CTP hang)")
	fs.Float64Var(&c.seconds, "seconds", 0, "run length in simulated seconds (0 = the case's default)")
	fs.Uint64Var(&c.seed, "seed", 0, "random seed (0 = the case's default)")
	fs.BoolVar(&c.fixed, "fixed", false, "run the bug-fixed application variant")
}

// resolve looks up the case study (I/II/III or 1/2/3) and fills the
// recording parameters, defaulting seconds and seed from the case table.
func (c *caseFlags) resolve() (*caseStudy, recordParams, error) {
	p := recordParams{seconds: c.seconds, seed: c.seed, fixed: c.fixed}
	for i := range caseStudies {
		cs := &caseStudies[i]
		if name := strings.ToUpper(c.study); name != cs.name && name != strconv.Itoa(i+1) {
			continue
		}
		if p.seconds == 0 {
			p.seconds = cs.seconds
		}
		if p.seed == 0 {
			p.seed = cs.seed
		}
		return cs, p, nil
	}
	return nil, p, usagef("unknown case study %q (want I, II, or III)", c.study)
}

func caseCmd(fs *flag.FlagSet) runFunc {
	var (
		c caseFlags
		r rankFlags
	)
	c.register(fs)
	r.register(fs, 7)
	save := fs.String("save", "", "also save the trace(s) to this path prefix")
	localize := fs.Bool("localize", false, "also print the symptom-to-source localization report")
	htmlOut := fs.String("html", "", "write a self-contained HTML report to this path")
	return func(_ []string, stdout, _ io.Writer) error {
		cs, p, err := c.resolve()
		if err != nil {
			return err
		}
		det, err := pickDetector(r.detector, r.nu, 0, 0)
		if err != nil {
			return err
		}
		periods := cs.periods
		if periods == nil {
			periods = []int{0}
		}
		var inputs []sentomist.RunInput
		for i, period := range periods {
			rp := p
			rp.seed, rp.periodMS = p.seed+uint64(i), period
			run, err := cs.record(rp)
			if err != nil {
				return err
			}
			line, path := cs.summary(run), *save+".trace"
			if len(periods) > 1 {
				line = fmt.Sprintf("run %d: D=%dms, %s", i+1, period, line)
				path = fmt.Sprintf("%s-run%d.trace", *save, i+1)
			}
			fmt.Fprintln(stdout, line)
			inputs = append(inputs, sentomist.RunInput{Trace: run.Trace, Programs: run.Programs})
			if *save != "" {
				if err := sentomist.SaveTrace(run.Trace, path); err != nil {
					return err
				}
			}
		}

		ranking, err := sentomist.Mine(inputs, sentomist.MineConfig{
			IRQ: cs.irq, Nodes: cs.nodes, Labels: cs.labels, Detector: det,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%d intervals mined (%d-dimensional instruction counters, detector %s):\n\n",
			len(ranking.Samples), ranking.Dim, ranking.Detector)
		fmt.Fprint(stdout, ranking.Table(r.top, r.bottom))
		prog := inputs[0].Programs[cs.nodes[0]]
		if *localize {
			suspicions, err := sentomist.Localize(inputs, ranking, prog, sentomist.LocalizeConfig{MaxResults: 10})
			if err != nil {
				return fmt.Errorf("localize: %w", err)
			}
			fmt.Fprintf(stdout, "\nsymptom-to-source localization:\n%s", sentomist.LocalizeReport(suspicions))
		}
		if *htmlOut != "" {
			f, err := os.Create(*htmlOut)
			if err != nil {
				return err
			}
			werr := sentomist.HTMLReport(f, inputs, ranking, prog, sentomist.HTMLConfig{
				Title: fmt.Sprintf("Sentomist report — case %s", strings.ToUpper(c.study)),
			})
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
			fmt.Fprintf(stdout, "\nwrote HTML report to %s\n", *htmlOut)
		}
		return nil
	}
}

func recordCmd(fs *flag.FlagSet) runFunc {
	var c caseFlags
	c.register(fs)
	out := fs.String("out", "", "output path (required; .json selects JSON)")
	period := fs.Int("period", 20, "case I: sampling period in ms")
	asBundle := fs.Bool("bundle", false, "save a full run bundle (trace + programs) instead of a bare trace")
	return func(_ []string, stdout, _ io.Writer) error {
		if *out == "" {
			return usagef("-out is required")
		}
		cs, p, err := c.resolve()
		if err != nil {
			return err
		}
		p.periodMS = *period
		r, err := cs.record(p)
		if err != nil {
			return err
		}
		if *asBundle {
			err = sentomist.SaveBundle(r, *out)
		} else {
			err = sentomist.SaveTrace(r.Trace, *out)
		}
		if err != nil {
			return err
		}
		markers := 0
		for _, nt := range r.Trace.Nodes {
			markers += len(nt.Markers)
		}
		fmt.Fprintf(stdout, "wrote %s: %d nodes, %d markers, ~%d bytes uncompressed\n",
			*out, len(r.Trace.Nodes), markers, r.Trace.SizeBytes())
		printSchedStats(stdout, "scheduler", r.Stats)
		return nil
	}
}
