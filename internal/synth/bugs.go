package synth

import (
	"fmt"

	"sentomist/internal/apps"
	"sentomist/internal/dev"
)

// Seeded-bug scenarios for the Sentomist-bench corpus (internal/bench):
// each runner wires one of the firmware pairs from internal/apps into a
// deterministic multi-hop scenario and executes it. The Fixed flag selects
// the repaired firmware on the monitored node(s); everything else —
// topology, seeds, traffic — is identical across the pair.

// BugScenarioConfig parameterizes one seeded-bug run.
type BugScenarioConfig struct {
	// Seconds is the run length; each runner has a default tuned so the
	// buggy variant manifests a handful of symptomatic intervals.
	Seconds float64
	// Seed drives all randomness.
	Seed uint64
	// Fixed selects the repaired firmware.
	Fixed bool
}

func (c BugScenarioConfig) seconds(def float64) float64 {
	if c.Seconds > 0 {
		return c.Seconds
	}
	return def
}

// bugLFSRSeed derives a nonzero per-node LFSR seed from the node ID.
func bugLFSRSeed(id int) uint8 {
	return uint8(0x5a+37*id) | 1
}

// splashScenario wires the shared Splash flood: a root and four non-root
// nodes in a two-level tree (root hears 1 and 2; 3 hangs off 1, 4 off 2).
// buggyRoot/buggyLeaf select the firmware variants independently so each
// catalog entry seeds exactly one bug; rootBeacons enables the root's
// control-beacon traffic (the contention source of the root-hang bug, left
// off in the lrt scenario so the only dissemination gaps are seeded ones).
func splashScenario(cfg BugScenarioConfig, buggyRoot, buggyLeaf, rootBeacons bool) (*apps.Run, error) {
	s := apps.NewScenario(cfg.Seed)
	if err := s.AddNode(apps.NodeSpec{
		ID:     apps.SplashRootID,
		Source: apps.SplashRootSource(buggyRoot, rootBeacons),
		Timer0: true, Timer1: true, Radio: true,
		RAMInit: map[string]uint8{"lfsr": bugLFSRSeed(apps.SplashRootID)},
	}); err != nil {
		return nil, fmt.Errorf("synth: splash root: %w", err)
	}
	for _, id := range apps.SplashLeaves {
		if err := s.AddNode(apps.NodeSpec{
			ID:     id,
			Source: apps.SplashLeafSource(buggyLeaf),
			Timer0: true, Radio: true,
			RAMInit: map[string]uint8{"lfsr": bugLFSRSeed(id)},
		}); err != nil {
			return nil, fmt.Errorf("synth: splash leaf %d: %w", id, err)
		}
	}
	// Lossless links: every dissemination gap in these traces is seeded,
	// not drawn — the ground-truth oracles depend on it.
	s.Link(0, 1, 0)
	s.Link(0, 2, 0)
	s.Link(1, 3, 0)
	s.Link(2, 4, 0)
	s.Link(1, 2, 0) // the relays hear each other (flood redundancy)
	return s.Run(cfg.seconds(20))
}

// SplashLRT runs the splash-lrt scenario: the recovery-timer lost-update
// race on the non-root nodes (the root always runs repaired firmware so
// rounds keep flowing). Monitored: the recovery tick (IRQ Timer0) on
// SplashLeaves.
func SplashLRT(cfg BugScenarioConfig) (*apps.Run, error) {
	return splashScenario(cfg, false, !cfg.Fixed, false)
}

// SplashRootHang runs the splash-root-hang scenario: the unhandled
// round-start rejection on the root (the leaves always run repaired
// firmware). Monitored: the round timer (IRQ Timer0) on the root.
func SplashRootHang(cfg BugScenarioConfig) (*apps.Run, error) {
	return splashScenario(cfg, !cfg.Fixed, false, true)
}

// SplashLRTIRQ and friends name each scenario's monitored event type.
const (
	SplashLRTIRQ      = dev.IRQTimer0
	SplashRootHangIRQ = dev.IRQTimer0
	TreeInconsIRQ     = dev.IRQTimer0
	FPAckIRQ          = dev.IRQRadioRX
	ScratchIRQ        = dev.IRQTimer0
)

// TreeIncons runs the ctp-tree-incons scenario: a leaf between two
// beaconing candidate parents, with the torn (parent, hop) pair read.
// Monitored: the route-maintenance tick (IRQ Timer0) on the leaf.
func TreeIncons(cfg BugScenarioConfig) (*apps.Run, error) {
	s := apps.NewScenario(cfg.Seed)
	if err := s.AddNode(apps.NodeSpec{
		ID:     apps.TreeRootID,
		Source: apps.TreeRouteSinkSource(),
		Radio:  true,
	}); err != nil {
		return nil, fmt.Errorf("synth: tree root: %w", err)
	}
	for _, p := range []struct{ id, hop int }{
		{apps.TreeParentAID, 1},
		{apps.TreeParentBID, 2},
	} {
		if err := s.AddNode(apps.NodeSpec{
			ID:     p.id,
			Source: apps.TreeRouteParentSource(),
			Timer0: true, Radio: true,
			RAMInit: map[string]uint8{
				"bid":  uint8(p.id),
				"bhop": uint8(p.hop),
				"lfsr": bugLFSRSeed(p.id),
			},
		}); err != nil {
			return nil, fmt.Errorf("synth: tree parent %d: %w", p.id, err)
		}
	}
	if err := s.AddNode(apps.NodeSpec{
		ID:     apps.TreeLeafID,
		Source: apps.TreeRouteLeafSource(!cfg.Fixed),
		Timer0: true, Radio: true,
		RAMInit: map[string]uint8{"lfsr": bugLFSRSeed(apps.TreeLeafID)},
	}); err != nil {
		return nil, fmt.Errorf("synth: tree leaf: %w", err)
	}
	s.Link(apps.TreeRootID, apps.TreeParentAID, 0.01)
	s.Link(apps.TreeRootID, apps.TreeParentBID, 0.01)
	s.Link(apps.TreeParentAID, apps.TreeLeafID, 0.01)
	s.Link(apps.TreeParentBID, apps.TreeLeafID, 0.01)
	s.Link(apps.TreeParentAID, apps.TreeParentBID, 0.01)
	return s.Run(cfg.seconds(20))
}

// FPAck runs the fp-ack scenario: source -> relay -> sink with
// application-level ACKs and the type-unchecked acceptance on the relay.
// Monitored: packet arrival (IRQ RadioRX) on the relay.
func FPAck(cfg BugScenarioConfig) (*apps.Run, error) {
	s := apps.NewScenario(cfg.Seed)
	if err := s.AddNode(apps.NodeSpec{
		ID:     apps.FPAckSinkID,
		Source: apps.FPAckSinkSource(),
		Radio:  true,
	}); err != nil {
		return nil, fmt.Errorf("synth: fpack sink: %w", err)
	}
	if err := s.AddNode(apps.NodeSpec{
		ID:     apps.FPAckRelayID,
		Source: apps.FPAckRelaySource(!cfg.Fixed),
		Radio:  true,
	}); err != nil {
		return nil, fmt.Errorf("synth: fpack relay: %w", err)
	}
	if err := s.AddNode(apps.NodeSpec{
		ID:     apps.FPAckSourceID,
		Source: apps.FPAckSourceSource(0xb3, 0x07),
		Timer0: true, Radio: true,
	}); err != nil {
		return nil, fmt.Errorf("synth: fpack source: %w", err)
	}
	// Routing is a chain (the source addresses the relay, the relay the
	// sink), but all three nodes are mutually audible: the source-sink link
	// carries no decoded traffic — unicast frames are not decoded by third
	// parties — yet lets carrier sense see the whole exchange, so the
	// interesting orderings come from timing, not hidden-terminal smashes.
	s.Link(apps.FPAckSourceID, apps.FPAckRelayID, 0)
	s.Link(apps.FPAckRelayID, apps.FPAckSinkID, 0)
	s.Link(apps.FPAckSourceID, apps.FPAckSinkID, 0)
	return s.Run(cfg.seconds(20))
}

// scratchScenario wires one fuzzed node with the given source and fuzzed
// IRQ set.
func scratchScenario(cfg BugScenarioConfig, source string, irqs []int) (*apps.Run, error) {
	s := apps.NewScenario(cfg.Seed)
	if err := s.AddNode(apps.NodeSpec{
		ID:         apps.ScratchNodeID,
		Source:     source,
		Timer0:     true,
		FuzzIRQs:   irqs,
		FuzzMinGap: 2_000,
		FuzzMaxGap: 40_000,
	}); err != nil {
		return nil, fmt.Errorf("synth: scratch node: %w", err)
	}
	return s.Run(cfg.seconds(10))
}

// ScratchClobber runs the shared-scratch clobber under single-IRQ fuzzing
// (promoted from examples/customapp). Monitored: the digest tick (IRQ
// Timer0) on the node.
func ScratchClobber(cfg BugScenarioConfig) (*apps.Run, error) {
	return scratchScenario(cfg, apps.ScratchAppSource(!cfg.Fixed), []int{dev.IRQTimer1})
}

// ScratchClobberMI is the multi-IRQ variant: motion and vibration fuzzers
// race the same digest window.
func ScratchClobberMI(cfg BugScenarioConfig) (*apps.Run, error) {
	return scratchScenario(cfg, apps.ScratchAppMISource(!cfg.Fixed), []int{dev.IRQTimer1, dev.IRQADC})
}
