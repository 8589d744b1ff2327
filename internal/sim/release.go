package sim

import (
	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/node"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
	"github.com/flexray-go/coefficient/internal/trace"
)

// releaser feeds message instances into the CHI buffers: periodic releases
// for static messages, and a sporadic (periodic with random phase) arrival
// process for dynamic messages, as in the paper's SAE-derived workload.
type releaser struct {
	opts Options
	env  *Env

	// streams holds one release stream per message.
	streams []*stream

	// arena block-allocates instances so a horizon's worth of releases
	// costs a handful of mallocs instead of one per instance.
	arena instanceArena
}

// arenaBlock is the instance allocation granularity of the releaser.
const arenaBlock = 256

// instanceArena hands out instances from append-only blocks.  Unlike a
// sync.Pool, memory is never recycled within a run — every instance
// keeps its identity until the run ends — so reuse cannot perturb the
// deterministic event order (DESIGN.md §8).  Blocks are retained across
// rewinds: a batched replica run truncates them back to length zero and
// replica r+1 overwrites replica r's instances in place, so the steady
// state allocates nothing (DESIGN.md §15).
type instanceArena struct {
	blocks [][]node.Instance
	cur    int
}

func (a *instanceArena) new() *node.Instance {
	if a.cur < len(a.blocks) && len(a.blocks[a.cur]) == cap(a.blocks[a.cur]) {
		a.cur++
	}
	if a.cur == len(a.blocks) {
		a.blocks = append(a.blocks, make([]node.Instance, 0, arenaBlock))
	}
	b := a.blocks[a.cur][:len(a.blocks[a.cur])+1]
	a.blocks[a.cur] = b
	return &b[len(b)-1]
}

// rewind truncates every block back to length zero, keeping the backing
// memory.  Callers must guarantee no instance handed out before the
// rewind is still referenced — the engine's Reset clears every CHI
// buffer and scheduler queue first.
//
//perf:hotpath
func (a *instanceArena) rewind() {
	for i := range a.blocks {
		a.blocks[i] = a.blocks[i][:0]
	}
	a.cur = 0
}

// stream tracks the next release of one message.
type stream struct {
	msg *signal.Message
	// period and offset in macroticks.
	period, offset timebase.Macrotick
	// deadline is the relative deadline in macroticks.
	deadline timebase.Macrotick
	// next is the next release time; seq the next sequence number.
	next timebase.Macrotick
	seq  int64
}

// relSeedSalt decorrelates the releaser's RNG stream from the seed's
// other consumers (CRC, clock drift, injectors).  Frozen: changing it
// moves every sporadic release phase and breaks trace goldens.
const relSeedSalt uint64 = 0xF1E2D3C4B5A69788

func newReleaser(opts Options, env *Env) *releaser {
	r := &releaser{opts: opts, env: env}
	rng := fault.NewRNG(opts.Seed ^ relSeedSalt)
	rng.Uint64() // the retired jitter seed; see reset
	cfg := opts.Config
	for i := range opts.Workload.Messages {
		m := &opts.Workload.Messages[i]
		s := &stream{
			msg:      m,
			period:   cfg.FromDuration(m.Period),
			deadline: cfg.FromDuration(m.Deadline),
			seq:      1,
		}
		switch m.Kind {
		case signal.Periodic:
			s.offset = cfg.FromDuration(m.Offset)
		case signal.Aperiodic:
			// Sporadic arrivals: fixed inter-arrival (the paper's
			// 50ms "period") with a random initial phase.
			if s.period <= 0 {
				s.period = cfg.FromDuration(m.Deadline)
			}
			s.offset = timebase.Macrotick(rng.Intn(int(s.period)))
		}
		s.next = s.offset
		r.streams = append(r.streams, s)
	}
	return r
}

// reset rewinds the releaser to the state newReleaser would build for
// the given seed, without reallocating streams or arena blocks.  The
// draw protocol replays construction exactly: one discarded Uint64, then
// the sporadic phases in message order — so the release schedule is
// byte-identical to a fresh releaser's.
//
//perf:hotpath
func (r *releaser) reset(seed uint64) {
	r.opts.Seed = seed
	var rng fault.RNG
	rng.Seed(seed ^ relSeedSalt)
	// The first Uint64 once seeded the arrival-jitter stream.  Jitter is
	// gone but the draw stays: without it every sporadic release phase
	// moves and the trace goldens break, as they would if relSeedSalt
	// changed.
	rng.Uint64()
	for _, s := range r.streams {
		if s.msg.Kind == signal.Aperiodic {
			s.offset = timebase.Macrotick(rng.Intn(int(s.period)))
		}
		s.next = s.offset
		s.seq = 1
	}
	r.arena.rewind()
}

// enqueueCycle releases, for streaming runs, every instance whose release
// time falls inside the cycle.
func (r *releaser) enqueueCycle(cycle int64) {
	cfg := r.opts.Config
	start := cfg.CycleStart(cycle)
	end := start + cfg.MacroPerCycle
	for _, s := range r.streams {
		for s.next < end {
			r.release(s, s.next, s.next+s.deadline)
			s.next += s.period
			s.seq++
		}
	}
}

// enqueueBatch releases BatchInstances instances per message with no
// deadline and returns the total count.  All instances of a message are
// released together at its offset — batch mode measures how fast the
// schedulers *drain* a transfer backlog (the paper's "running time"), not
// how fast the application produces it.
func (r *releaser) enqueueBatch() int64 {
	var total int64
	for _, s := range r.streams {
		for k := 0; k < r.opts.BatchInstances; k++ {
			r.release(s, s.offset, node.NoDeadline)
			s.seq++
			total++
		}
	}
	return total
}

func (r *releaser) release(s *stream, rel, deadline timebase.Macrotick) {
	in := r.arena.new()
	*in = node.Instance{
		Msg:      s.msg,
		Seq:      s.seq,
		Release:  rel,
		Deadline: deadline,
	}
	ecu := r.env.ECU(s.msg.Node)
	var err error
	if s.msg.Kind == signal.Periodic {
		err = ecu.EnqueueStatic(in)
	} else {
		err = ecu.EnqueueDynamic(in)
	}
	if err != nil {
		// Workload and cluster were validated; any other enqueue failure
		// here is unreachable, but never silently lose an instance.
		panic("sim: release failed: " + err.Error())
	}
	r.env.Record(trace.Event{
		Time: rel, Kind: trace.EventRelease,
		FrameID: s.msg.ID, Seq: in.Seq, Node: s.msg.Node,
	})
}
