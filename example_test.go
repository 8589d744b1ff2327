package coefficient_test

import (
	"fmt"
	"log"
	"time"

	coefficient "github.com/flexray-go/coefficient"
)

// ExampleSimulate runs one simulated second of the Brake-By-Wire workload
// through CoEfficient on a fault-free bus.
func ExampleSimulate() {
	set, err := coefficient.MergeWorkloads("demo", coefficient.BBW())
	if err != nil {
		log.Fatal(err)
	}
	setup, err := coefficient.DeriveLatencySetup(set, 30, 50)
	if err != nil {
		log.Fatal(err)
	}
	res, err := coefficient.Simulate(coefficient.SimOptions{
		Config:   setup.Config,
		Workload: set,
		BitRate:  setup.BitRate,
		Seed:     1,
		Mode:     coefficient.Streaming,
		Duration: time.Second,
	}, coefficient.NewCoEfficient(coefficient.SchedulerOptions{}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("scheduler:", res.Scheduler)
	fmt.Println("misses:", res.Report.OverallMissRatio())
	// Output:
	// scheduler: CoEfficient
	// misses: 0
}

// ExamplePlanDifferentiated computes the paper's differentiated
// retransmission plan for two messages.
func ExamplePlanDifferentiated() {
	msgs := []coefficient.ReliabilityMessage{
		{Name: "fragile", Bits: 2000, Period: time.Millisecond},
		{Name: "robust", Bits: 64, Period: 100 * time.Millisecond},
	}
	plan, err := coefficient.PlanDifferentiated(msgs, 1e-5, time.Second, 0.9999, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fragile k=%d, robust k=%d, goal met: %t\n",
		plan.Retransmissions[0], plan.Retransmissions[1], plan.Success >= 0.9999)
	// Output:
	// fragile k=4, robust k=1, goal met: true
}

// ExampleBuildSchedule derives the static schedule table of the ACC
// workload.
func ExampleBuildSchedule() {
	set := coefficient.ACC()
	setup, err := coefficient.DeriveLatencySetup(set, 30, 50)
	if err != nil {
		log.Fatal(err)
	}
	tbl, err := coefficient.BuildSchedule(set, setup.Config)
	if err != nil {
		log.Fatal(err)
	}
	first := tbl.Entries[0]
	fmt.Printf("%d entries, feasible: %t\n", len(tbl.Entries), tbl.Feasible())
	fmt.Printf("slot %d: base cycle %d, repetition %d\n",
		first.FrameID, first.BaseCycle, first.Repetition)
	// Output:
	// 20 entries, feasible: true
	// slot 1: base cycle 1, repetition 16
}

// ExampleFrameFailureProb evaluates the paper's transient-fault model.
func ExampleFrameFailureProb() {
	p, err := coefficient.FrameFailureProb(1e-7, 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("p_z = %.4g\n", p)
	// Output:
	// p_z = 0.0002
}
