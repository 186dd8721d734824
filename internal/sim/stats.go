package sim

// Stats are per-run scheduler counters, collected by every engine path so
// speedup regressions are diagnosable: a scenario that should parallelize
// but shows ParallelSections == 0 is bounded by radio chatter (the
// conservative lookahead collapses to lockstep rounds), one with many
// sections but few ParallelAdvances per section has too few concurrently
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
	// stretches where two or more nodes advanced concurrently.
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
	// WorkersParked and WorkersWoken count worker-pool transitions into
	// and out of the parked (condition-wait) state; a high rate relative
	// to ParallelSections means sections are too sparse for spin-waiting.
	WorkersParked uint64
	WorkersWoken  uint64
}

// Stats returns the scheduler counters accumulated so far.
func (s *Sim) Stats() Stats {
	st := s.stats
	if s.pool != nil {
		st.WorkersParked = s.pool.parkedTotal.Load()
		st.WorkersWoken = s.pool.wokenTotal.Load()
	}
	return st
}
