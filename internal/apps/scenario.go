package apps

import (
	"fmt"
	"math"

	"sentomist/internal/asm"
	"sentomist/internal/medium"
	"sentomist/internal/trace"
)

// Scenario is the generic front door for user-defined experiments: write
// SVM-8 assembly, wire nodes and radio links, run, and mine the trace. The
// three case studies are built on the same machinery.
type Scenario struct {
	b    *builder
	done bool
}

// NodeSpec describes one node of a scenario.
type NodeSpec struct {
	// ID is the node's address on the radio medium, in [0, 254]: radio
	// addresses are one byte and 255 is the broadcast address.
	ID int
	// Source is the node's SVM-8 assembly program.
	Source string
	// Timer0, Timer1, ADC, Radio select the attached devices.
	Timer0, Timer1, ADC, Radio bool
	// RAMInit pre-seeds .var variables by name before boot (per-node
	// configuration for shared binaries).
	RAMInit map[string]uint8
	// FuzzIRQs, when non-empty, attaches a random-interrupt test driver
	// (Regehr-style) raising these IRQs (each in 0..63) at random times
	// with gaps in [FuzzMinGap, FuzzMaxGap] cycles. A zero FuzzMinGap
	// selects 200 and a zero FuzzMaxGap selects 20×FuzzMinGap.
	FuzzIRQs   []int
	FuzzMinGap uint64
	FuzzMaxGap uint64
	// Sequential runs this node under TOSSIM-like discrete-event
	// semantics: no preemption, event procedures execute atomically.
	Sequential bool
	// Stream, when set, receives the node's lifecycle markers online as
	// they are recorded (the streaming featuring hook).
	Stream trace.StreamSink
	// DiscardMarkers drops this node's markers from the materialized
	// trace; with Stream set, the sink is the node's only output.
	DiscardMarkers bool
}

// NewScenario creates an empty scenario whose randomness derives from seed.
func NewScenario(seed uint64) *Scenario {
	return &Scenario{b: newBuilder(seed, 0, false)}
}

// AddNode assembles the node's source and attaches the requested devices.
func (s *Scenario) AddNode(spec NodeSpec) error {
	if s.done {
		return fmt.Errorf("apps: scenario already ran")
	}
	if spec.ID < 0 || spec.ID >= medium.Broadcast {
		return fmt.Errorf("apps: node %d: ID outside [0, %d] (radio addresses are one byte, %d is broadcast)",
			spec.ID, medium.Broadcast-1, medium.Broadcast)
	}
	if _, dup := s.b.run.Nodes[spec.ID]; dup {
		return fmt.Errorf("apps: duplicate node %d", spec.ID)
	}
	minGap, maxGap := spec.FuzzMinGap, spec.FuzzMaxGap
	if len(spec.FuzzIRQs) > 0 {
		// AddNode is the boundary that validates the fuzz spec: node.Raise
		// and dev.NewFuzzer panic on these values as invariants.
		for _, irq := range spec.FuzzIRQs {
			if irq < 0 || irq > 63 {
				return fmt.Errorf("apps: node %d: FuzzIRQs holds IRQ %d, want 0..63", spec.ID, irq)
			}
		}
		if minGap == 0 {
			minGap = 200
		}
		if maxGap == 0 {
			if minGap > math.MaxUint64/20 {
				return fmt.Errorf("apps: node %d: FuzzMinGap %d overflows the default FuzzMaxGap (20×FuzzMinGap)", spec.ID, minGap)
			}
			maxGap = minGap * 20
		}
		if maxGap < minGap || maxGap-minGap >= math.MaxInt64 {
			return fmt.Errorf("apps: node %d: FuzzMaxGap %d is outside [FuzzMinGap, FuzzMinGap+2^63-2] for FuzzMinGap %d", spec.ID, maxGap, minGap)
		}
	}
	prog, err := assembleWithPrelude(spec.Source)
	if err != nil {
		return fmt.Errorf("apps: node %d: %w", spec.ID, err)
	}
	ram := make(map[uint16]uint8, len(spec.RAMInit))
	for name, v := range spec.RAMInit {
		addr, ok := prog.Vars[name]
		if !ok {
			return fmt.Errorf("apps: node %d: RAMInit names unknown .var %q", spec.ID, name)
		}
		ram[addr] = v
	}
	_, err = s.b.addNode(spec.ID, prog, nodeOpts{
		timer0:     spec.Timer0,
		timer1:     spec.Timer1,
		adc:        spec.ADC,
		radio:      spec.Radio,
		ramInit:    ram,
		fuzzIRQs:   spec.FuzzIRQs,
		fuzzMin:    minGap,
		fuzzMax:    maxGap,
		sequential: spec.Sequential,
		sink:       spec.Stream,
		discard:    spec.DiscardMarkers,
	})
	return err
}

// Link declares a symmetric radio link between nodes a and b with the given
// frame-loss probability. A link to an ID that never gets a radio node
// carries no traffic.
func (s *Scenario) Link(a, b int, lossProb float64) {
	s.b.net.AddSymmetricLink(a, b, lossProb)
}

// SetParallelism bounds how many nodes advance concurrently inside the
// scheduler's conservative-lookahead sections. w <= 1 (the default) keeps
// node execution sequential; w < 0 selects GOMAXPROCS. Serialized traces
// are byte-identical at any setting.
func (s *Scenario) SetParallelism(w int) { s.b.parallel = w }

// Run executes the scenario for the given wall-clock seconds of simulated
// time and returns the collected run. A scenario runs once.
func (s *Scenario) Run(seconds float64) (*Run, error) {
	if s.done {
		return nil, fmt.Errorf("apps: scenario already ran")
	}
	s.done = true
	return s.b.execute(seconds)
}

// assembleWithPrelude assembles source with the shared hardware .equ map
// prepended, so user programs can name ports (T0_CTRL, TX_FIFO, ...) and
// commands without redefining them. Results are shared through a bounded
// content-keyed cache (see asmcache.go).
func assembleWithPrelude(source string) (*asm.Result, error) {
	return assembleCached(prelude + source)
}
