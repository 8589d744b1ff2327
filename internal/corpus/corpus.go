// Package corpus is the generative scenario corpus and differential
// tester (ROADMAP item 4, DESIGN.md §13): a seeded, fully deterministic
// generator sweeps message sets, BER regimes, drift/sync-loss/babble
// profiles from the scenario DSL and criticality mixes into
// self-contained Cases; a differential harness runs every
// Case under CoEfficient, FSPEC and adaptive CoEfficient on the
// deterministic parallel runner and checks a catalog of cross-scheduler
// invariants; and a content-hashed golden store under results/corpus/
// turns the whole corpus into a standing regression net for every
// future scheduler change.
//
// Everything is a pure function of the corpus seed: the same seed and
// count produce byte-identical Case JSON, byte-identical outcomes at
// every parallelism degree, and therefore a byte-identical golden
// store on every machine.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/flexray-go/coefficient/internal/core"
	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/fspec"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/topology"
	"github.com/flexray-go/coefficient/internal/workload"
)

// ErrCase is returned when a Case cannot be built into a runnable
// simulation.
var ErrCase = errors.New("corpus: invalid case")

// Static slot counts of the 1 ms latency cycle the corpus runs on: the
// real-world sets (frame IDs 1..20) use the figure-5 geometry, synthetic
// sets (IDs 1..80) the figure-4 synthetic geometry.
const (
	staticSlotsReal      = 30
	staticSlotsSynthetic = 80
)

// Scheduler labels of the differential trio.
const (
	SchedCoEfficient = "CoEfficient"
	SchedFSPEC       = "FSPEC"
	SchedAdaptive    = "CoEfficient+adapt"
)

// Schedulers lists the policies every Case runs under, in canonical
// order.
var Schedulers = []string{SchedCoEfficient, SchedFSPEC, SchedAdaptive}

// WorkloadSpec describes how a Case's message set is assembled.
type WorkloadSpec struct {
	// Base is "BBW", "ACC" or "synthetic".
	Base string `json:"base"`
	// SyntheticMessages and SyntheticSeed parameterize the synthetic
	// static set (Base == "synthetic" only).
	SyntheticMessages int    `json:"syntheticMessages,omitempty"`
	SyntheticSeed     uint64 `json:"syntheticSeed,omitempty"`
	// DynamicCount and DynamicSeed parameterize the SAE aperiodic set.
	DynamicCount int    `json:"dynamicCount"`
	DynamicSeed  uint64 `json:"dynamicSeed"`
	// PriorityMix selects the criticality mix of the dynamic set: how
	// Priority values (the adaptive scheduler's shedding order) are
	// assigned.  One of "fifo", "reversed", "tiered", "shuffled".
	PriorityMix string `json:"priorityMix"`
	// PrioritySeed drives the "shuffled" permutation.
	PrioritySeed uint64 `json:"prioritySeed,omitempty"`
}

// TopologySpec labels a case with a channel layout.  The simulator does
// not model channel layouts, so the label changes no run: every case runs
// the same dual-channel cluster (BuildCluster).  It stays in the Case JSON
// because a case's hash is its identity in the golden store.
type TopologySpec struct {
	// Kind is "bus", "star" or "hybrid".
	Kind string `json:"kind"`
	// Couplers is the active-star coupler count (star/hybrid only).
	Couplers int `json:"couplers,omitempty"`
}

// TimingSpec switches on the local-clock layer with the given knobs.
type TimingSpec struct {
	// DriftPPM bounds per-node oscillator error.
	DriftPPM float64 `json:"driftPPM"`
	// SyncEnabled runs the FTM offset/rate correction loop.
	SyncEnabled bool `json:"syncEnabled"`
	// Guardians enables per-node bus guardians.
	Guardians bool `json:"guardians"`
	// JitterMicroticks bounds sync-measurement noise.
	JitterMicroticks int64 `json:"jitterMicroticks,omitempty"`
}

// Case is one self-contained generated scenario: everything a
// differential cell needs to rebuild the workload, topology, cycle
// configuration, fault timeline and schedulers from scratch.  Cases
// marshal to canonical JSON (struct order fixed, map keys sorted by
// encoding/json), and the SHA-256 of that JSON is the Case's identity
// in the golden store.
type Case struct {
	// Name labels the case ("corpus-<seed>-<index>").
	Name string `json:"name"`
	// SimSeed drives arrivals, per-node drift draws and scenario fault
	// injection; derived from the corpus seed, never the corpus seed
	// itself.
	SimSeed uint64 `json:"simSeed"`
	// Setting is the reliability setting label: "BER-7" (ρ = 0.999) or
	// "BER-9" (ρ = 0.99999).
	Setting string `json:"setting"`
	// Workload assembles the message set.
	Workload WorkloadSpec `json:"workload"`
	// Topology is the channel-layout label (not simulated).
	Topology TopologySpec `json:"topology"`
	// Minislots is the dynamic segment size.
	Minislots int `json:"minislots"`
	// HorizonMs is the streaming horizon in milliseconds.
	HorizonMs int `json:"horizonMs"`
	// Scenario is the fault timeline (channels, node events, timing
	// faults); never nil for generated cases — a fault-free case still
	// scripts both channels at BER 0.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
	// Timing optionally switches on the local-clock layer.
	Timing *TimingSpec `json:"timing,omitempty"`
}

// Canonical returns the case's canonical JSON encoding.
func (c *Case) Canonical() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Hash returns the hex SHA-256 of the canonical encoding.
func (c *Case) Hash() (string, error) {
	data, err := c.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// ParseCase decodes and validates one case document.
func ParseCase(data []byte) (*Case, error) {
	var c Case
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCase, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks the case's own fields plus its embedded scenario.
func (c *Case) Validate() error {
	switch c.Workload.Base {
	case "BBW", "ACC":
	case "synthetic":
		if c.Workload.SyntheticMessages <= 0 {
			return fmt.Errorf("%w: synthetic base needs SyntheticMessages > 0", ErrCase)
		}
	default:
		return fmt.Errorf("%w: unknown workload base %q", ErrCase, c.Workload.Base)
	}
	switch c.Workload.PriorityMix {
	case "fifo", "reversed", "tiered", "shuffled":
	default:
		return fmt.Errorf("%w: unknown priority mix %q", ErrCase, c.Workload.PriorityMix)
	}
	if c.Workload.DynamicCount <= 0 {
		return fmt.Errorf("%w: DynamicCount %d", ErrCase, c.Workload.DynamicCount)
	}
	switch c.Topology.Kind {
	case "bus":
	case "star", "hybrid":
		if c.Topology.Couplers < 1 {
			return fmt.Errorf("%w: %s topology needs couplers", ErrCase, c.Topology.Kind)
		}
	default:
		return fmt.Errorf("%w: unknown topology kind %q", ErrCase, c.Topology.Kind)
	}
	switch c.Setting {
	case "BER-7", "BER-9":
	default:
		return fmt.Errorf("%w: unknown setting %q", ErrCase, c.Setting)
	}
	if c.Minislots <= 0 {
		return fmt.Errorf("%w: minislots %d", ErrCase, c.Minislots)
	}
	if c.HorizonMs <= 0 {
		return fmt.Errorf("%w: horizon %d ms", ErrCase, c.HorizonMs)
	}
	if c.Timing != nil && c.Timing.DriftPPM < 0 {
		return fmt.Errorf("%w: negative drift %g", ErrCase, c.Timing.DriftPPM)
	}
	if c.Scenario != nil {
		if err := c.Scenario.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrCase, err)
		}
	}
	return nil
}

// staticSlots returns the static slot count of the case's cycle.
func (c *Case) staticSlots() int {
	if c.Workload.Base == "synthetic" {
		return staticSlotsSynthetic
	}
	return staticSlotsReal
}

// setting maps the label to the experiment's (BER, goal) pair, with the
// planning BER replaced by the case's scripted physical base BER so the
// schedulers plan against the channel they actually get.
func (c *Case) setting() experiment.Scenario {
	sc := experiment.BER7()
	if c.Setting == "BER-9" {
		sc = experiment.BER9()
	}
	sc.BER = c.maxBaseBER()
	return sc
}

// maxBaseBER is the worst scripted base BER across both channels.
func (c *Case) maxBaseBER() float64 {
	var ber float64
	if c.Scenario != nil {
		for _, key := range []string{"A", "B"} {
			if ch, ok := c.Scenario.Channels[key]; ok && ch != nil && ch.BaseBER > ber {
				ber = ch.BaseBER
			}
		}
	}
	return ber
}

// Horizon returns the streaming duration.
func (c *Case) Horizon() time.Duration {
	return time.Duration(c.HorizonMs) * time.Millisecond
}

// BuildWorkload assembles the case's message set: the static base set
// plus the SAE aperiodic set with the case's criticality mix applied.
func (c *Case) BuildWorkload() (signal.Set, error) {
	var static signal.Set
	switch c.Workload.Base {
	case "BBW":
		static = workload.BBW()
	case "ACC":
		static = workload.ACC()
	case "synthetic":
		syn, err := workload.Synthetic(workload.SyntheticOptions{
			Messages: c.Workload.SyntheticMessages,
			Seed:     c.Workload.SyntheticSeed,
		})
		if err != nil {
			return signal.Set{}, fmt.Errorf("%w: %v", ErrCase, err)
		}
		static = syn
	default:
		return signal.Set{}, fmt.Errorf("%w: base %q", ErrCase, c.Workload.Base)
	}
	dyn, err := workload.SAEAperiodic(workload.SAEAperiodicOptions{
		FirstID: c.staticSlots() + 1,
		Count:   c.Workload.DynamicCount,
		Seed:    c.Workload.DynamicSeed,
	})
	if err != nil {
		return signal.Set{}, fmt.Errorf("%w: %v", ErrCase, err)
	}
	applyPriorityMix(dyn.Messages, c.Workload.PriorityMix, c.Workload.PrioritySeed)
	return workload.Merge(fmt.Sprintf("%s+sae-%s", static.Name, c.Workload.PriorityMix), static, dyn)
}

// BuildCluster returns the 10-node cluster every workload distributes its
// messages over.  All nodes are dual-channel (message placement spans both
// channels); the topology label only names the cluster.
func (c *Case) BuildCluster() topology.Cluster {
	cluster := topology.DualChannelBus(workload.NodeCount)
	cluster.Name = fmt.Sprintf("%s-%d", c.Topology.Kind, workload.NodeCount)
	return cluster
}

// Compile builds the runnable pieces shared by every scheduler cell:
// workload, cluster and cycle setup.  It is the "does this case even
// build" check the generator and the property tests rely on.
func (c *Case) Compile() (signal.Set, topology.Cluster, experiment.Setup, error) {
	if err := c.Validate(); err != nil {
		return signal.Set{}, topology.Cluster{}, experiment.Setup{}, err
	}
	set, err := c.BuildWorkload()
	if err != nil {
		return signal.Set{}, topology.Cluster{}, experiment.Setup{}, err
	}
	cluster := c.BuildCluster()
	setup, err := experiment.LatencySetup(set, c.staticSlots(), c.Minislots)
	if err != nil {
		return signal.Set{}, topology.Cluster{}, experiment.Setup{}, err
	}
	return set, cluster, setup, nil
}

// Scheduler constructs the named policy for this case.
func (c *Case) Scheduler(name string, set signal.Set) (sim.Scheduler, error) {
	sc := c.setting()
	switch name {
	case SchedCoEfficient:
		return core.New(core.Options{BER: sc.BER, Goal: sc.Goal, Unit: experiment.PlanUnit}), nil
	case SchedFSPEC:
		return fspec.New(fspec.Options{Copies: experiment.FSPECCopies(set, sc, 0)}), nil
	case SchedAdaptive:
		return core.New(core.Options{BER: sc.BER, Goal: sc.Goal, Unit: experiment.PlanUnit, Adaptive: true}), nil
	default:
		return nil, fmt.Errorf("%w: unknown scheduler %q", ErrCase, name)
	}
}

// timingOptions maps the spec to the simulator's timing layer.
func (c *Case) timingOptions() *sim.TimingOptions {
	if c.Timing == nil {
		return nil
	}
	return &sim.TimingOptions{
		DriftPPM:         c.Timing.DriftPPM,
		JitterMicroticks: c.Timing.JitterMicroticks,
		SyncEnabled:      c.Timing.SyncEnabled,
		Guardians:        c.Timing.Guardians,
	}
}

// applyPriorityMix rewrites the dynamic messages' Priority fields (the
// shedding / FTDMA service order) according to the criticality mix.
// Lower Priority value means more critical.
func applyPriorityMix(msgs []signal.Message, mix string, seed uint64) {
	n := len(msgs)
	switch mix {
	case "fifo":
		// Keep the generator's ID-ordered priorities (1..n).
	case "reversed":
		for i := range msgs {
			msgs[i].Priority = n - i
		}
	case "tiered":
		// Three criticality tiers: the first third is hard-ish (tier 1),
		// the middle third tier 2, the rest tier 3.  Ties exercise the
		// schedulers' deterministic tie-breaking.
		for i := range msgs {
			msgs[i].Priority = 1 + (3*i)/n
		}
	case "shuffled":
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i + 1
		}
		rng := fault.NewRNG(seed)
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i := range msgs {
			msgs[i].Priority = perm[i]
		}
	}
}

// FaultFree reports whether the case scripts no faults at all: zero BER
// on both channels, no fault windows of any kind, no node events, no
// timing faults, no local-clock layer.  Fault-free cases must deliver
// every static instance (invariant fault-free-static).
func (c *Case) FaultFree() bool {
	if c.Timing != nil {
		return false
	}
	s := c.Scenario
	if s == nil {
		return true
	}
	if len(s.Nodes) > 0 || s.Timing != nil {
		return false
	}
	for _, key := range []string{"A", "B"} {
		ch, ok := s.Channels[key]
		if !ok || ch == nil {
			continue
		}
		if ch.BaseBER != 0 || len(ch.Steps) > 0 || len(ch.Ramps) > 0 ||
			len(ch.Bursts) > 0 || len(ch.Blackouts) > 0 {
			return false
		}
	}
	return true
}

// Benign reports whether the case's only faults are base-rate bit
// errors at or below the planning BER: no windows, no node events, no
// timing faults.  Benign cases are where the reliability-goal invariant
// applies — the planner knows the exact physical rate it must cover.
func (c *Case) Benign() bool {
	if c.Timing != nil {
		return false
	}
	s := c.Scenario
	if s == nil {
		return true
	}
	if len(s.Nodes) > 0 || s.Timing != nil {
		return false
	}
	for _, key := range []string{"A", "B"} {
		ch, ok := s.Channels[key]
		if !ok || ch == nil {
			continue
		}
		if len(ch.Steps) > 0 || len(ch.Ramps) > 0 || len(ch.Bursts) > 0 || len(ch.Blackouts) > 0 {
			return false
		}
	}
	return true
}

// HasBabble reports whether the case scripts a babbling-idiot window
// that can actually take effect: one that starts within the horizon and
// whose node is not scripted down for the entire observed window.  A
// window past the end of the run, or on a node a crash event silences
// throughout, never drives a slot — the guardian-engagement invariant
// must not arm on it (the minimizer's horizon/fault shrink passes
// produce exactly these shapes, and so can hand-written cases).
func (c *Case) HasBabble() bool {
	if c.Scenario == nil || c.Scenario.Timing == nil {
		return false
	}
	for _, w := range c.Scenario.Timing.Babble {
		if w.Start.Std() >= c.Horizon() {
			continue
		}
		if !c.nodeDownThroughout(w) {
			return true
		}
	}
	return false
}

// nodeDownThroughout reports whether the case's node events keep w.Node
// down for the whole observed part of the window.
func (c *Case) nodeDownThroughout(w scenario.NodeWindow) bool {
	start := w.Start.Std()
	end := w.End.Std()
	if w.End == 0 || end > c.Horizon() {
		end = c.Horizon()
	}
	for _, ev := range c.Scenario.Nodes {
		if ev.Node != w.Node {
			continue
		}
		if ev.FailAt.Std() <= start && (ev.RecoverAt == 0 || ev.RecoverAt.Std() >= end) {
			return true
		}
	}
	return false
}

// GuardiansOn reports whether bus guardians are enabled.
func (c *Case) GuardiansOn() bool {
	return c.Timing != nil && c.Timing.Guardians
}
