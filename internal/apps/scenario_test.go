package apps

import (
	"fmt"
	"strings"
	"testing"
)

// TestScenarioRejectsOutOfRangeNodeID: radio addresses are one byte and 255
// is the broadcast address, so AddNode accepts IDs 0..254 only; a link to
// an ID without a node stays inert.
func TestScenarioRejectsOutOfRangeNodeID(t *testing.T) {
	src := ".entry e\ne:\n\tsei\n\tosrun"
	for _, id := range []int{-1, 255, 256, 300} {
		err := NewScenario(1).AddNode(NodeSpec{ID: id, Source: src, Radio: true})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("node %d", id)) {
			t.Errorf("AddNode(ID %d) = %v, want an error naming the node", id, err)
		}
	}
	s := NewScenario(1)
	for _, id := range []int{0, 254} {
		if err := s.AddNode(NodeSpec{ID: id, Source: src, Radio: true}); err != nil {
			t.Fatalf("AddNode(ID %d): %v", id, err)
		}
	}
	s.Link(0, 254, 0)
	s.Link(0, 300, 0)
	s.Link(-7, 254, 0)
	run, err := s.Run(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Trace.Nodes) != 2 {
		t.Fatalf("%d nodes traced, want 2", len(run.Trace.Nodes))
	}
}
