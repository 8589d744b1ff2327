// Cluster lifecycle: everything that has to happen before the paper's
// scheduling results apply — the wakeup pattern and the coldstart protocol
// bring the cluster up from silence, then CoEfficient schedules the BBW
// workload (here with one ECU suffering a permanent fault mid-run) while
// every node's drifting clock is held to the cluster's by the FTM
// offset/rate correction loop.
package main

import (
	"fmt"
	"log"
	"time"

	coefficient "github.com/flexray-go/coefficient"
)

func main() {
	// Phase 0: wakeup.  A wake-capable ECU puts the wakeup pattern on the
	// bus; transceivers leave sleep after their per-node delays.
	wnodes := make([]coefficient.WakeupNode, 10)
	for i := range wnodes {
		wnodes[i] = coefficient.WakeupNode{
			Name:      fmt.Sprintf("ecu-%02d", i),
			CanWake:   i < 3,
			WakeDelay: i % 4,
		}
	}
	wake, err := coefficient.SimulateWakeup(coefficient.WakeupConfig{Nodes: wnodes, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wakeup:     %s woke the bus; all transceivers up after %d cycles\n",
		wake.Initiator, wake.WakeupCycles)

	// Phase 1: coldstart.  Three coldstart-capable ECUs, seven others.
	nodes := make([]coefficient.StartupNode, 10)
	for i := range nodes {
		nodes[i] = coefficient.StartupNode{
			Name:      fmt.Sprintf("ecu-%02d", i),
			Coldstart: i < 3,
		}
	}
	boot, err := coefficient.SimulateStartup(coefficient.StartupConfig{Nodes: nodes, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("startup:    leader %s, cluster up after %d cycles (%d CAS collisions)\n",
		boot.Leader, boot.StartupCycles, boot.CASCollisions)

	// Phase 2: schedule the BBW workload; ECU 4 fails permanently at 1s.
	// Every node runs a local clock drifting up to ±100 ppm, corrected by
	// the FTM loop over the sync frames of the running schedule.
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
