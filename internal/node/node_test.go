package node

import (
	"errors"
	"testing"
	"time"

	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
)

func staticMsg(id, nodeID int) *signal.Message {
	return &signal.Message{
		ID:       id,
		Name:     "m",
		Node:     nodeID,
		Kind:     signal.Periodic,
		Period:   8 * time.Millisecond,
		Deadline: 8 * time.Millisecond,
		Bits:     128,
	}
}

func dynMsg(id, nodeID, prio int) *signal.Message {
	return &signal.Message{
		ID:       id,
		Name:     "d",
		Node:     nodeID,
		Kind:     signal.Aperiodic,
		Deadline: 50 * time.Millisecond,
		Bits:     64,
		Priority: prio,
	}
}

func inst(m *signal.Message, seq int64, release, deadline timebase.Macrotick) *Instance {
	return &Instance{Msg: m, Seq: seq, Release: release, Deadline: deadline}
}

func TestStaticFIFO(t *testing.T) {
	e := NewECU(1, []int{3})
	m := staticMsg(3, 1)
	for i := int64(1); i <= 3; i++ {
		if err := e.EnqueueStatic(inst(m, i, timebase.Macrotick(i*10), NoDeadline)); err != nil {
			t.Fatalf("EnqueueStatic: %v", err)
		}
	}
	// Nothing released before t=10.
	if got := e.PeekStatic(3, 5); got != nil {
		t.Errorf("PeekStatic(t=5) = seq %d, want nil", got.Seq)
	}
	got := e.PopStatic(3, 100)
	if got == nil || got.Seq != 1 {
		t.Fatalf("PopStatic = %+v, want seq 1", got)
	}
	// Requeue puts it back at the head.
	if err := e.RequeueStatic(got); err != nil {
		t.Fatalf("RequeueStatic: %v", err)
	}
	if got := e.PeekStatic(3, 100); got == nil || got.Seq != 1 {
		t.Fatalf("after requeue PeekStatic = %+v, want seq 1", got)
	}
	if got := e.StaticBacklog(100); got != 3 {
		t.Errorf("StaticBacklog = %d, want 3", got)
	}
}

func TestStaticErrors(t *testing.T) {
	e := NewECU(1, []int{3})
	foreign := staticMsg(3, 2)
	if err := e.EnqueueStatic(inst(foreign, 1, 0, NoDeadline)); !errors.Is(err, ErrForeignMessage) {
		t.Errorf("foreign enqueue = %v, want ErrForeignMessage", err)
	}
	unknown := staticMsg(9, 1)
	if err := e.EnqueueStatic(inst(unknown, 1, 0, NoDeadline)); !errors.Is(err, ErrUnknownFrame) {
		t.Errorf("unknown frame = %v, want ErrUnknownFrame", err)
	}
	if err := e.RequeueStatic(inst(unknown, 1, 0, NoDeadline)); !errors.Is(err, ErrUnknownFrame) {
		t.Errorf("requeue unknown frame = %v, want ErrUnknownFrame", err)
	}
	if got := e.PopStatic(9, 100); got != nil {
		t.Errorf("PopStatic(unknown) = %+v, want nil", got)
	}
}

func TestDropExpiredStatic(t *testing.T) {
	e := NewECU(1, []int{3})
	m := staticMsg(3, 1)
	ok := inst(m, 1, 0, 1000)
	late := inst(m, 2, 0, 50)
	batch := inst(m, 3, 0, NoDeadline)
	for _, in := range []*Instance{ok, late, batch} {
		if err := e.EnqueueStatic(in); err != nil {
			t.Fatalf("EnqueueStatic: %v", err)
		}
	}
	dropped := e.DropExpiredStatic(100)
	if len(dropped) != 1 || dropped[0].Seq != 2 {
		t.Fatalf("DropExpiredStatic = %+v, want seq 2 only", dropped)
	}
	if e.StaticBacklog(100) != 2 {
		t.Errorf("backlog after drop = %d, want 2", e.StaticBacklog(100))
	}
}

func TestDynamicPriorityOrder(t *testing.T) {
	e := NewECU(2, nil)
	lo := dynMsg(90, 2, 5)
	hi := dynMsg(91, 2, 1)
	mid := dynMsg(92, 2, 3)
	for seq, m := range []*signal.Message{lo, hi, mid} {
		if err := e.EnqueueDynamic(inst(m, int64(seq+1), 0, NoDeadline)); err != nil {
			t.Fatalf("EnqueueDynamic: %v", err)
		}
	}
	got := e.PeekDynamicAny(10)
	if got == nil || got.Msg.ID != 91 {
		t.Fatalf("PeekDynamicAny = %+v, want priority-1 message 91", got)
	}
	// Per-frame-ID lookup respects the slot's frame ID.
	if got := e.PeekDynamicFor(92, 10); got == nil || got.Msg.ID != 92 {
		t.Fatalf("PeekDynamicFor(92) = %+v", got)
	}
	if got := e.PeekDynamicFor(99, 10); got != nil {
		t.Fatalf("PeekDynamicFor(99) = %+v, want nil", got)
	}
	// Remove and re-check.
	if !e.RemoveDynamic(got2(t, e.PeekDynamicFor(91, 10))) {
		t.Fatal("RemoveDynamic failed")
	}
	if got := e.PeekDynamicAny(10); got == nil || got.Msg.ID != 92 {
		t.Fatalf("after remove, PeekDynamicAny = %+v, want 92", got)
	}
	if e.DynamicBacklog(10) != 2 {
		t.Errorf("DynamicBacklog = %d, want 2", e.DynamicBacklog(10))
	}
}

func got2(t *testing.T, in *Instance) *Instance {
	t.Helper()
	if in == nil {
		t.Fatal("nil instance")
	}
	return in
}

func TestDynamicSamePriorityFIFO(t *testing.T) {
	e := NewECU(2, nil)
	m1 := dynMsg(90, 2, 1)
	m2 := dynMsg(91, 2, 1)
	if err := e.EnqueueDynamic(inst(m2, 1, 20, NoDeadline)); err != nil {
		t.Fatal(err)
	}
	if err := e.EnqueueDynamic(inst(m1, 1, 10, NoDeadline)); err != nil {
		t.Fatal(err)
	}
	got := e.PeekDynamicAny(100)
	if got == nil || got.Release != 10 {
		t.Fatalf("PeekDynamicAny = %+v, want earlier release first", got)
	}
}

func TestDynamicReleaseGating(t *testing.T) {
	e := NewECU(2, nil)
	m := dynMsg(90, 2, 1)
	if err := e.EnqueueDynamic(inst(m, 1, 100, NoDeadline)); err != nil {
		t.Fatal(err)
	}
	if got := e.PeekDynamicAny(50); got != nil {
		t.Errorf("unreleased instance visible at t=50")
	}
	if e.DynamicBacklog(50) != 0 {
		t.Errorf("DynamicBacklog(50) = %d, want 0", e.DynamicBacklog(50))
	}
}

func TestDropExpiredDynamic(t *testing.T) {
	e := NewECU(2, nil)
	m := dynMsg(90, 2, 1)
	if err := e.EnqueueDynamic(inst(m, 1, 0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := e.EnqueueDynamic(inst(m, 2, 0, 500)); err != nil {
		t.Fatal(err)
	}
	dropped := e.DropExpiredDynamic(100)
	if len(dropped) != 1 || dropped[0].Seq != 1 {
		t.Fatalf("DropExpiredDynamic = %+v", dropped)
	}
	if e.DynamicBacklog(100) != 1 {
		t.Errorf("backlog = %d, want 1", e.DynamicBacklog(100))
	}
}

func TestDynamicForeign(t *testing.T) {
	e := NewECU(2, nil)
	if err := e.EnqueueDynamic(inst(dynMsg(90, 3, 1), 1, 0, NoDeadline)); !errors.Is(err, ErrForeignMessage) {
		t.Errorf("foreign dynamic = %v, want ErrForeignMessage", err)
	}
	if e.RemoveDynamic(inst(dynMsg(90, 2, 1), 1, 0, NoDeadline)) {
		t.Error("RemoveDynamic of absent instance returned true")
	}
}

func TestInstanceExpired(t *testing.T) {
	in := &Instance{Deadline: 100}
	if in.Expired(100) {
		t.Error("not expired at exactly the deadline")
	}
	if !in.Expired(101) {
		t.Error("expired after the deadline")
	}
	in.Done = true
	if in.Expired(101) {
		t.Error("done instances never expire")
	}
	batch := &Instance{Deadline: NoDeadline}
	if batch.Expired(1 << 50) {
		t.Error("batch instances never expire")
	}
}

func TestStaticFrameIDs(t *testing.T) {
	e := NewECU(1, []int{5, 2, 9})
	ids := e.StaticFrameIDs()
	if len(ids) != 3 {
		t.Fatalf("StaticFrameIDs = %v", ids)
	}
	// Returned slice is a copy.
	ids[0] = 999
	if e.StaticFrameIDs()[0] == 999 {
		t.Error("StaticFrameIDs exposed internal slice")
	}
}

func TestPeekStaticBlind(t *testing.T) {
	e := NewECU(1, []int{3})
	m := staticMsg(3, 1)
	done := inst(m, 1, 0, NoDeadline)
	done.Done = true
	done.Attempts = 1
	fresh := inst(m, 2, 0, NoDeadline)
	for _, in := range []*Instance{done, fresh} {
		if err := e.EnqueueStatic(in); err != nil {
			t.Fatalf("EnqueueStatic: %v", err)
		}
	}
	// Blind phase re-offers the delivered head while budget remains.
	got := e.PeekStaticBlind(3, 10, 2)
	if got == nil || got.Seq != 1 {
		t.Fatalf("PeekStaticBlind = %+v, want delivered seq 1", got)
	}
	// Budget exhausted for the head: the next instance is offered.
	got = e.PeekStaticBlind(3, 10, 1)
	if got == nil || got.Seq != 2 {
		t.Fatalf("PeekStaticBlind(budget 1) = %+v, want seq 2", got)
	}
	// Release gating holds.
	late := inst(m, 3, 100, NoDeadline)
	if err := e.EnqueueStatic(late); err != nil {
		t.Fatal(err)
	}
	if got := e.PeekStaticBlind(9, 10, 5); got != nil {
		t.Errorf("unknown frame returned %+v", got)
	}
}

func TestPeekDynamicForBlind(t *testing.T) {
	e := NewECU(2, nil)
	m := dynMsg(90, 2, 1)
	done := inst(m, 1, 0, NoDeadline)
	done.Done = true
	done.Attempts = 3
	if err := e.EnqueueDynamic(done); err != nil {
		t.Fatal(err)
	}
	if got := e.PeekDynamicForBlind(90, 10, 4); got == nil || got.Seq != 1 {
		t.Fatalf("PeekDynamicForBlind = %+v, want delivered seq 1", got)
	}
	if got := e.PeekDynamicForBlind(90, 10, 3); got != nil {
		t.Fatalf("budget-exhausted instance offered: %+v", got)
	}
	if got := e.PeekDynamicForBlind(91, 10, 9); got != nil {
		t.Fatalf("wrong frame ID offered: %+v", got)
	}
}
