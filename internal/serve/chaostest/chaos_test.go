package chaostest

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/serve"
)

func baseConfig() serve.Config {
	return serve.Config{Workers: 4, QueueCapacity: 32}
}

func quickSpec(seed uint64) serve.JobSpec {
	return serve.JobSpec{Seed: seed, Quick: true, Parallel: 2}
}

func drain(t *testing.T, s *serve.Server, timeout time.Duration) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return s.Drain(ctx)
}

// TestChaosMixedFaultsPreserveInvariants is the headline chaos run:
// a batch of mixed-criticality jobs under randomized (but seeded)
// worker panics.  Whatever the fault schedule does, no job may be lost
// or double-reported, and every job that still completes must produce
// the exact bytes of a serial offline run.
func TestChaosMixedFaultsPreserveInvariants(t *testing.T) {
	h, err := New(baseConfig(), Plan{Seed: 42, PanicPct: 10})
	if err != nil {
		t.Fatal(err)
	}
	h.Server.Start()

	crits := []string{"low", "", "high"}
	var jobs []*serve.Job
	for i := 0; i < 12; i++ {
		spec := quickSpec(uint64(100 + i))
		spec.Criticality = crits[i%len(crits)]
		job, cached, err := h.Server.Submit(spec)
		if err != nil || cached != nil {
			t.Fatalf("submit %d: cached %v, err %v", i, cached, err)
		}
		jobs = append(jobs, job)
	}
	if err := drain(t, h.Server, 2*time.Minute); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, v := range h.CheckInvariants() {
		t.Error(v)
	}
	if h.Injected(FaultPanic) == 0 {
		t.Fatal("chaos plan injected no panic")
	}

	// Surviving results are byte-identical to a serial offline run.
	compared := 0
	for _, job := range jobs {
		st := h.Server.Status(job)
		if st.State != "done" || compared >= 3 {
			continue
		}
		compared++
		res, ok := h.Server.Store().Get(job.Hash)
		if !ok {
			t.Fatalf("done job %s has no stored result", job.ID)
		}
		rows, err := experiment.Degradation(experiment.DegradationOptions{
			Seed: job.Spec.Seed, Quick: true, Parallel: 1,
		})
		if err != nil {
			t.Fatalf("offline run: %v", err)
		}
		if want := experiment.DegradationTable(rows).String(); res.Table != want {
			t.Errorf("job %s: daemon result differs from serial offline run", job.ID)
		}
	}
	if compared == 0 {
		t.Error("chaos plan killed every job; no result survived to compare")
	}
}

// TestChaosDeadlineStormForcedDrainTerminates wedges every attempt (a
// storm of stuck cells).  Jobs with deadlines fail on their own; jobs
// without are freed only by the forced drain — which must still
// terminate, with every job accounted for.
func TestChaosDeadlineStormForcedDrainTerminates(t *testing.T) {
	h, err := New(baseConfig(), Plan{Seed: 7, SlowPct: 100})
	if err != nil {
		t.Fatal(err)
	}
	h.Server.Start()

	deadlined := 0
	for i := 0; i < 8; i++ {
		spec := quickSpec(uint64(200 + i))
		if i%2 == 0 {
			spec.Deadline = scenario.Duration(20 * time.Millisecond)
			deadlined++
		}
		if _, _, err := h.Server.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	err = drain(t, h.Server, 500*time.Millisecond)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want forced-drain DeadlineExceeded", err)
	}
	for _, v := range h.CheckInvariants() {
		t.Error(v)
	}
	st := h.Server.Stats()
	if st.Failed != 8 {
		t.Errorf("failed = %d, want all 8 (deadlined %d, drain-cancelled %d)",
			st.Failed, deadlined, 8-deadlined)
	}
	if h.Injected(FaultSlow) == 0 {
		t.Error("no slow cells injected")
	}
}

// TestChaosPoisonedScenarioQuarantined drives one scenario that panics:
// the daemon must quarantine it on its first panic, refuse
// resubmission, and leave healthy jobs untouched.
func TestChaosPoisonedScenarioQuarantined(t *testing.T) {
	poisoned := quickSpec(300)
	hash, err := poisoned.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(baseConfig(), Plan{Seed: 1, Poisoned: map[string]bool{hash: true}})
	if err != nil {
		t.Fatal(err)
	}
	h.Server.Start()

	bad, _, err := h.Server.Submit(poisoned)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := h.Server.Submit(quickSpec(301))
	if err != nil {
		t.Fatal(err)
	}
	if err := drain(t, h.Server, 2*time.Minute); err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, v := range h.CheckInvariants() {
		t.Error(v)
	}
	badSt := h.Server.Status(bad)
	if badSt.State != "quarantined" {
		t.Fatalf("poisoned job: state %s, want quarantined", badSt.State)
	}
	if !strings.Contains(badSt.Error, "chaos: injected panic") {
		t.Errorf("error %q missing injected panic value", badSt.Error)
	}
	if st := h.Server.Status(good); st.State != "done" {
		t.Errorf("healthy job caught in quarantine: state %s (err %q)", st.State, st.Error)
	}
	if _, _, err := h.Server.Submit(poisoned); !errors.Is(err, serve.ErrQuarantined) {
		t.Errorf("resubmit of poisoned scenario: err = %v, want ErrQuarantined", err)
	}
}
