package feature

import "sentomist/internal/lifecycle"

// Counter is the dense reference for CounterSparse: iv's instruction
// counter as a ProgramLen-dimensional vector, dimension i the number of
// executions of instruction i within the interval window.
func (e *Extractor) Counter(iv lifecycle.Interval) ([]float64, error) {
	nt, err := e.nodeWindow(iv)
	if err != nil {
		return nil, err
	}
	v := make([]float64, nt.ProgramLen)
	// Marker m's delta covers instructions executed in (m-1, m]; the
	// interval window is (StartMarker, EndMarker].
	for m := iv.StartMarker + 1; m <= iv.EndMarker; m++ {
		for _, d := range nt.Markers[m].Deltas {
			v[d.PC] += float64(d.Count)
		}
	}
	return v, nil
}
