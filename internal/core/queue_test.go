package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/flexray-go/coefficient/internal/timebase"
)

// Randomized model test of the head-indexed retransmission queue against a
// plain slice: insertion at the tail, the head or a random index, removal
// at a random index, the expiry filter and reset leave the same sequence,
// and every slot outside the live window is nil.
func TestJobQueueMatchesSliceModel(t *testing.T) {
	r := rand.New(rand.NewSource(20260601))
	var q jobQueue
	var model []*retxJob
	for step := 0; step < 20000; step++ {
		switch op := r.Intn(20); {
		case op < 10:
			j := &retxJob{deadline: timebase.Macrotick(r.Intn(1000)), seq: int64(step)}
			i := len(model)
			switch op {
			case 8:
				i = 0 // insert at the head
			case 9:
				i = r.Intn(len(model) + 1)
			}
			q.insert(i, j)
			model = slices.Insert(model, i, j)
		case op < 18:
			if len(model) == 0 {
				continue
			}
			i := r.Intn(len(model))
			if op < 12 {
				i = 0 // EDF head served
			}
			q.remove(i)
			model = slices.Delete(model, i, i+1)
		case op == 18:
			now := timebase.Macrotick(r.Intn(1000))
			expired := func(j *retxJob) bool { return now > j.deadline }
			model = slices.DeleteFunc(model, expired)
			q.removeIf(expired)
		default:
			if r.Intn(10) == 0 {
				q.reset()
				model = model[:0]
			}
		}
		if !slices.Equal(q.items(), model) {
			t.Fatalf("step %d: queue holds %d jobs, model %d", step, len(q.items()), len(model))
		}
		for i, j := range q.buf[:cap(q.buf)] {
			if (i < q.head || i >= len(q.buf)) && j != nil {
				t.Fatalf("step %d: vacated slot %d still points at a job", step, i)
			}
		}
	}
}
