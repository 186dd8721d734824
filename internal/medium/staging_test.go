package medium

import (
	"reflect"
	"testing"

	"sentomist/internal/randx"
)

// stagingNet registers MACs 3, 5 and 9 on a fresh network.
func stagingNet() (*Network, map[int]*MAC) {
	n := NewNetwork(randx.New(1))
	macs := map[int]*MAC{}
	for _, id := range []int{3, 5, 9} {
		macs[id] = n.NewMAC(id)
	}
	return n, macs
}

// TestCommitStagedOrder checks the merged order CommitStaged hands the
// queue: submit round first, then the order of the ID list, then each
// MAC's own order. Every event fires at the same cycle, so the queue's
// sequence numbers, drawn at commit, alone decide the fire order.
func TestCommitStagedOrder(t *testing.T) {
	n, macs := stagingNet()
	const anchor, quantum, at = 100, 32, 10_000
	var fired []string
	stage := func(id int, submitAt uint64, label string) {
		m := macs[id]
		m.staged = append(m.staged, stagedEvent{
			submitAt: submitAt, at: at, fn: func(uint64) { fired = append(fired, label) },
		})
	}
	n.BeginStaging()
	// Rounds on the grid at 100 with step 32: <= 100 -> 100,
	// 101..132 -> 132, 133..164 -> 164.
	stage(3, 120, "a1") // 132
	stage(3, 130, "a2") // 132
	stage(3, 140, "a3") // 164
	stage(5, 90, "b1")  // 100
	stage(5, 125, "b2") // 132
	stage(5, 150, "b3") // 164
	stage(9, 101, "c1") // 132
	stage(9, 164, "c2") // 164
	// List order C, absent 7, A, B.
	if got := n.CommitStaged([]int{9, 7, 3, 5}, anchor, quantum); got != 8 {
		t.Fatalf("committed %d events, want 8", got)
	}
	if n.staging {
		t.Fatal("still staging after the commit")
	}
	n.Advance(at)
	want := []string{"b1", "c1", "a1", "a2", "b2", "c2", "a3", "b3"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fire order %v, want %v", fired, want)
	}
	for id, m := range macs {
		if len(m.staged) != 0 {
			t.Fatalf("MAC %d keeps %d staged events after the commit", id, len(m.staged))
		}
	}
}

// TestCommitStagedAllocFree: once the queue, the event free list and the
// scratch have grown, a commit allocates nothing.
func TestCommitStagedAllocFree(t *testing.T) {
	n, macs := stagingNet()
	fired := 0
	fn := func(uint64) { fired++ }
	at := uint64(0)
	cycle := func() {
		at += 1000
		n.BeginStaging()
		for k, id := range []int{9, 3, 5, 9, 3, 5} {
			m := macs[id]
			// Later MACs submit in earlier rounds, so the sort moves events.
			m.staged = append(m.staged, stagedEvent{submitAt: at - uint64(k%3)*40, at: at + 500, fn: fn})
		}
		n.CommitStaged([]int{3, 5, 9}, at-200, 32)
		n.Advance(at + 500)
	}
	cycle() // warm-up: grow the scratch, the queue and the free list
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%.1f allocations per commit, want 0", allocs)
	}
	// One warm-up here, one inside AllocsPerRun, then 100 runs.
	if fired != 6*102 {
		t.Fatalf("%d events fired, want %d", fired, 6*102)
	}
}
