// Cluster lifecycle: a running, synchronized cluster through a permanent
// node failure.  CoEfficient schedules the BBW workload while every
// node's drifting clock is held to the cluster's by the FTM offset/rate
// correction loop, and ECU 4 fails permanently at 1 s; its traffic is
// dropped from then on while the other nodes keep their schedule.
package main

import (
	"fmt"
	"log"
	"time"

	coefficient "github.com/flexray-go/coefficient"
)

func main() {
	// Schedule the BBW workload; ECU 4 fails permanently at 1s.  Every
	// node runs a local clock drifting up to ±100 ppm, corrected by the
	// FTM loop over the sync frames of the running schedule.
	sae, err := coefficient.SAEAperiodic(coefficient.SAEAperiodicOptions{FirstID: 31, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	set, err := coefficient.MergeWorkloads("lifecycle", coefficient.BBW(), sae)
	if err != nil {
		log.Fatal(err)
	}
	setup, err := coefficient.DeriveLatencySetup(set, 30, 50)
	if err != nil {
		log.Fatal(err)
	}
	injA, err := coefficient.NewBERInjector(1e-7, 11)
	if err != nil {
		log.Fatal(err)
	}
	res, err := coefficient.Simulate(coefficient.SimOptions{
		Config:    setup.Config,
		Workload:  set,
		BitRate:   setup.BitRate,
		InjectorA: injA,
		Seed:      11,
		Mode:      coefficient.Streaming,
		Duration:  2 * time.Second,
		Timing:    &coefficient.TimingOptions{DriftPPM: 100, JitterMicroticks: 4, SyncEnabled: true},
		Scenario: &coefficient.FaultScenario{Name: "ecu-4-failure", Nodes: []coefficient.ScenarioNodeEvent{
			{Node: 4, FailAt: coefficient.ScenarioDuration(time.Second)}, // ECU 4 dies at t = 1s
		}},
	}, coefficient.NewCoEfficient(coefficient.SchedulerOptions{BER: 1e-7, Goal: 0.999}))
	if err != nil {
		log.Fatal(err)
	}
	r := res.Report
	fmt.Printf("clock sync: %d FTM corrections, worst cluster precision %.2f macroticks, %d sync losses\n",
		r.Sync.Corrections, r.Sync.MaxOffsetMacroticks, r.Sync.SyncLossEvents)
	fmt.Printf("scheduling: %d delivered, %d dropped (ECU-4 traffic after its failure)\n",
		r.Delivered[coefficient.StaticSegment]+r.Delivered[coefficient.DynamicSegment],
		r.Dropped[coefficient.StaticSegment]+r.Dropped[coefficient.DynamicSegment])
	fmt.Printf("            miss ratio %.4f, dynamic latency %v\n",
		r.OverallMissRatio(), r.MeanLatency[coefficient.DynamicSegment])
}
