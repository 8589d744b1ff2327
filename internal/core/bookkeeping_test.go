package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/scenario"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/sim"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// bookkeepingCheck wraps CoEfficient and, after every scheduler hook,
// holds its O(1) copy bookkeeping to the forms it replaced: each frame's
// queued-job count must equal a recount of the queue, and JobsCreated
// must equal Σ k_z over the instances a map keyed by instance saw spawn.
// The map is the scheduler's former spawned set: an instance spawns its
// copies when first sent as a primary with k_z > 0, and leaves the set
// once delivered or dropped.
type bookkeepingCheck struct {
	*Scheduler
	t       *testing.T
	spawned map[*node.Instance]bool
	want    int64
	hooks   int
	dropped int
}

func (c *bookkeepingCheck) Init(env *sim.Env) error {
	err := c.Scheduler.Init(env)
	c.check("Init")
	return err
}

func (c *bookkeepingCheck) CycleStart(cycle int64, now timebase.Macrotick) {
	c.Scheduler.CycleStart(cycle, now)
	c.check("CycleStart")
}

func (c *bookkeepingCheck) StaticSlot(ch frame.Channel, cycle int64, slot int, now timebase.Macrotick) *sim.Transmission {
	tx := c.Scheduler.StaticSlot(ch, cycle, slot, now)
	c.sawPrimary(tx)
	c.check("StaticSlot")
	return tx
}

func (c *bookkeepingCheck) DynamicSlot(ch frame.Channel, cycle int64, counter, minislot, remaining int, now timebase.Macrotick) *sim.Transmission {
	tx := c.Scheduler.DynamicSlot(ch, cycle, counter, minislot, remaining, now)
	c.sawPrimary(tx)
	c.check("DynamicSlot")
	return tx
}

func (c *bookkeepingCheck) Result(tx *sim.Transmission, ok bool, now timebase.Macrotick) {
	in := tx.Instance
	c.Scheduler.Result(tx, ok, now)
	if in.Done {
		delete(c.spawned, in)
	}
	c.check("Result")
}

func (c *bookkeepingCheck) InstanceDropped(in *node.Instance, now timebase.Macrotick) {
	c.Scheduler.InstanceDropped(in, now)
	delete(c.spawned, in)
	c.dropped++
	c.check("InstanceDropped")
}

// sawPrimary replays the spawned set for a transmission the scheduler
// handed out: a primary is neither a copy job (Tag) nor a soft steal.
func (c *bookkeepingCheck) sawPrimary(tx *sim.Transmission) {
	if tx == nil || tx.Tag != nil || tx.Stolen {
		return
	}
	if k := c.planFor(tx.Instance.Msg.ID); k > 0 && !c.spawned[tx.Instance] {
		c.spawned[tx.Instance] = true
		c.want += int64(k)
	}
}

func (c *bookkeepingCheck) check(hook string) {
	c.t.Helper()
	c.hooks++
	counts := make([]int, len(c.frames))
	for _, j := range c.retx.items() {
		counts[j.in.Msg.ID]++
	}
	for id, f := range c.frames {
		if f.jobs != counts[id] {
			c.t.Fatalf("after %s #%d: frame %d counts %d queued jobs, the queue holds %d",
				hook, c.hooks, id, f.jobs, counts[id])
		}
	}
	if got := c.stats.JobsCreated; got != c.want {
		c.t.Fatalf("after %s #%d: JobsCreated = %d, Σ k_z over spawned instances = %d",
			hook, c.hooks, got, c.want)
	}
}

// randomCopyWorkload draws a static set on slots 1–10 and a dynamic set
// above it, with periods, deadlines and sizes that leave some copies
// unsent before their deadline.
func randomCopyWorkload(rng *rand.Rand) signal.Set {
	set := signal.Set{Name: "copies"}
	for id := 1; id <= 10; id++ {
		if rng.Intn(2) == 0 {
			continue
		}
		p := time.Duration(1+rng.Intn(4)) * time.Millisecond
		set.Messages = append(set.Messages, signal.Message{
			ID: id, Name: fmt.Sprintf("s%d", id), Node: rng.Intn(4), Kind: signal.Periodic,
			Period: p, Deadline: p, Bits: 16 * (1 + rng.Intn(20)),
		})
	}
	for id := 11; id <= 30; id++ {
		if rng.Intn(4) != 0 {
			continue
		}
		d := time.Duration(2+rng.Intn(10)) * time.Millisecond
		set.Messages = append(set.Messages, signal.Message{
			ID: id, Name: fmt.Sprintf("d%d", id), Node: rng.Intn(4), Kind: signal.Aperiodic,
			Period: d, Deadline: d, Bits: 16 * (1 + rng.Intn(8)), Priority: rng.Intn(3),
		})
	}
	if len(set.Messages) == 0 || set.Messages[0].Kind != signal.Periodic {
		set.Messages = append([]signal.Message{{ID: 1, Name: "s1", Node: 0, Kind: signal.Periodic,
			Period: time.Millisecond, Deadline: time.Millisecond, Bits: 64}}, set.Messages...)
	}
	return set
}

// TestCopyBookkeepingMatchesRecount runs plain and adaptive CoEfficient
// over random workloads, streaming (deadline drops and expired copies)
// and batch, under a BER step that makes the adaptive controller replan
// and shed, and checks the bookkeeping after every hook.
func TestCopyBookkeepingMatchesRecount(t *testing.T) {
	scn, err := scenario.Parse([]byte(`{
		"name": "ber-step",
		"channels": {
			"A": {"baseBER": 2e-5, "steps": [{"start": "40ms", "ber": 6e-4}]},
			"B": {"baseBER": 2e-5, "steps": [{"start": "40ms", "ber": 6e-4}]}
		}
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var spawned, hooks, dropped, replans int64
	for trial := 0; trial < 16; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		opts := sim.Options{
			Config:   testConfig(),
			Workload: randomCopyWorkload(rng),
			Seed:     uint64(trial),
			Scenario: scn,
			Mode:     sim.Streaming,
			Duration: 120 * time.Millisecond,
		}
		if trial%4 >= 2 {
			opts.Mode, opts.Duration, opts.BatchInstances = sim.Batch, 0, 20
		}
		c := &bookkeepingCheck{
			Scheduler: New(Options{BER: 1e-5, Goal: 0.999, Adaptive: trial%2 == 1}),
			t:         t,
			spawned:   make(map[*node.Instance]bool),
		}
		res, err := sim.Run(opts, c)
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		spawned += c.want
		hooks += int64(c.hooks)
		dropped += int64(c.dropped)
		replans += res.Report.Adaptive.Replans
	}
	if spawned == 0 || dropped == 0 || replans == 0 {
		t.Fatalf("%d copies spawned, %d instances dropped, %d replans: the runs must exercise all three",
			spawned, dropped, replans)
	}
	t.Logf("%d copy jobs, %d drops and %d replans checked over %d hooks", spawned, dropped, replans, hooks)
}

func testConfig() timebase.Config {
	return timebase.Config{
		MacrotickDuration:         time.Microsecond,
		MacroPerCycle:             1000,
		StaticSlots:               10,
		StaticSlotLen:             50,
		Minislots:                 40,
		MinislotLen:               5,
		DynamicSlotIdlePhase:      1,
		MinislotActionPointOffset: 1,
	}
}
