package serve

import (
	"sort"
	"sync"
)

// quarantine is the set of poisoned scenario hashes: a hash whose run
// panicked once.  Further submissions of it are refused.  A run is a
// pure function of its spec, so a scenario that drove the engine into a
// panic would do so again; replaying it buys nothing and costs a
// worker each time.
type quarantine struct {
	mu       sync.Mutex
	poisoned map[string]bool
}

func newQuarantine() *quarantine {
	return &quarantine{poisoned: make(map[string]bool)}
}

// poison marks hash quarantined: after a panic, or when recovery
// restores a quarantined terminal state from the journal.
func (q *quarantine) poison(hash string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.poisoned[hash] = true
}

// Quarantined reports whether hash is poisoned.
func (q *quarantine) Quarantined(hash string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.poisoned[hash]
}

// List returns the quarantined hashes in sorted order, for /healthz.
func (q *quarantine) List() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, 0, len(q.poisoned))
	for h := range q.poisoned {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}
