package lifecycle

// SetMinCompact lowers the log length below which streamers skip
// compaction, so small traces exercise it; restore puts the default back.
func SetMinCompact(n int) (restore func()) {
	old := minCompact
	minCompact = n
	return func() { minCompact = old }
}
