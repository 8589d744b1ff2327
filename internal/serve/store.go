package serve

import (
	"fmt"
	"sync"

	"github.com/flexray-go/coefficient/internal/experiment"
)

// Result is one completed simulation, keyed by canonical scenario hash.
type Result struct {
	// Hash is the canonical scenario hash.
	Hash string `json:"hash"`
	// JobID identifies the job that computed the result first.
	JobID string `json:"jobId"`
	// Rows are the degradation-harness rows.
	Rows []experiment.DegradationRow `json:"rows"`
	// Table is the rendered table — the bytes that must match a serial
	// offline run of the same scenario.
	Table string `json:"table"`
}

// Store is the write-once result store.  Two jobs with the same
// scenario hash must produce byte-identical results (the runner's
// determinism contract), so a duplicate Put with identical bytes is a
// harmless cache refill, while a duplicate with different bytes is a
// determinism violation: Put rejects it, keeps the first result, and
// counts the conflict so the chaos suite can assert there were none.
type Store struct {
	mu        sync.Mutex
	byHash    map[string]*Result
	conflicts int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byHash: make(map[string]*Result)}
}

// Get returns the result for hash, if present.
func (s *Store) Get(hash string) (*Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byHash[hash]
	return r, ok
}

// Put stores r under its hash, write-once (see the type comment).
func (s *Store) Put(r *Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok := s.byHash[r.Hash]
	if !ok {
		s.byHash[r.Hash] = r
		return nil
	}
	if prev.Table == r.Table {
		return nil
	}
	s.conflicts++
	return fmt.Errorf("store: conflicting result for %s: job %s disagrees with job %s (determinism violation)",
		r.Hash, r.JobID, prev.JobID)
}

// Len returns the number of stored results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byHash)
}

// Conflicts returns the number of rejected conflicting Puts.
func (s *Store) Conflicts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conflicts
}
