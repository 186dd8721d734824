package sim

// Stats are per-run scheduler counters, collected by every engine path so
// speedup regressions are diagnosable: a scenario that should open
// sections but shows ParallelSections == 0 is bounded by radio chatter (the
// conservative lookahead collapses to lockstep rounds), one with many
// sections but few ParallelAdvances per section has too few simultaneously
// runnable nodes to win anything.
type Stats struct {
	// Rounds counts realized lockstep rounds (two or more runnable nodes,
	// or a due network event forcing lockstep).
	Rounds uint64
	// IdleJumps counts globally-idle jumps straight to the next event.
	IdleJumps uint64
	// SoloJumps counts single-runnable AdvanceJump fast paths.
	SoloJumps uint64
	// ParallelSections counts conservative-lookahead sections entered:
	// stretches where two or more nodes each crossed the window in one
	// advance.
	ParallelSections uint64
	// HorizonBarriers counts section barriers completed — each merges the
	// staged medium events and re-derives every member's scheduler caches.
	HorizonBarriers uint64
	// ParallelAdvances counts node-advance tasks executed inside sections
	// (ParallelAdvances / ParallelSections is the mean section width).
	ParallelAdvances uint64
	// StagedEvents counts medium events buffered during sections and
	// deterministically re-sequenced at barriers.
	StagedEvents uint64
	// Deprecated: always zero. Sections run on the scheduler goroutine and
	// have no worker pool to park; the field stays so saved bundles and
	// existing readers keep decoding.
	WorkersParked uint64
	// Deprecated: always zero, like WorkersParked.
	WorkersWoken uint64
}

// Stats returns the scheduler counters accumulated so far.
func (s *Sim) Stats() Stats { return s.stats }
