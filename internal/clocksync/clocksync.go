// Package clocksync implements FlexRay's distributed clock synchronization:
// the fault-tolerant midpoint (FTM) algorithm that keeps every node's view
// of the global macrotick aligned closely enough for TDMA slot boundaries
// to be meaningful.  The paper's node architecture depends on it ("to
// further guarantee the synchronization performance, the bus driver needs
// to contain clock synchronization with other nodes", Section II-B).
//
// Each communication double-cycle, every node measures the arrival-time
// deviation of the sync frames it observes against their expected slot
// boundaries.  The FTM discards the k largest and k smallest measurements
// (k graded by how many measurements there are, so up to k faulty clocks
// cannot steer the correction) and takes the midpoint of the remaining
// extremes; the result feeds an offset correction applied in the network
// idle time of every odd cycle, and a rate correction derived from the
// change between paired measurements a double-cycle apart.
package clocksync

import (
	"errors"
	"slices"
)

// ErrNoMeasurements is returned when FTM receives an empty list.
var ErrNoMeasurements = errors.New("clocksync: no deviation measurements")

// FTMDiscard returns k, the number of extreme values the fault-tolerant
// midpoint discards from each end, per the FlexRay specification's grading:
// fewer than 3 values → 0, 3-7 values → 1, 8 or more → 2.
func FTMDiscard(n int) int {
	switch {
	case n < 3:
		return 0
	case n < 8:
		return 1
	default:
		return 2
	}
}

// FTM computes the fault-tolerant midpoint of the deviation measurements:
// after discarding the k largest and k smallest values, it returns the
// midpoint of the remaining extremes (rounded toward zero, as the
// specification's integer arithmetic does).  It sorts measurements in
// place, as sort.Ints does; callers that need the original order pass a
// copy.
func FTM(measurements []int64) (int64, error) {
	n := len(measurements)
	if n == 0 {
		return 0, ErrNoMeasurements
	}
	slices.Sort(measurements)
	k := FTMDiscard(n)
	lo, hi := measurements[k], measurements[n-1-k]
	return (lo + hi) / 2, nil
}
