package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/timebase"
)

func TestRecorderBasics(t *testing.T) {
	r := New()
	r.Record(Event{Time: 10, Kind: EventTxStart, FrameID: 3, Node: 1, Channel: frame.ChannelA})
	r.Record(Event{Time: 14, Kind: EventTxEnd, FrameID: 3, Node: 1, Channel: frame.ChannelA})
	r.Record(Event{Time: 20, Kind: EventFault, FrameID: 5, Node: 2, Channel: frame.ChannelB})

	if r.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", r.Len())
	}
	if r.Count(EventTxStart) != 1 || r.Count(EventFault) != 1 || r.Count(EventDrop) != 0 {
		t.Errorf("counts wrong: tx-start=%d fault=%d drop=%d",
			r.Count(EventTxStart), r.Count(EventFault), r.Count(EventDrop))
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Time != 10 || evs[2].Kind != EventFault {
		t.Errorf("Events() = %+v", evs)
	}
	// Events returns a copy.
	evs[0].Time = 999
	if r.Events()[0].Time != 10 {
		t.Error("Events() exposed internal slice")
	}
}

func TestNilAndZeroRecorderAreSafe(t *testing.T) {
	var nilRec *Recorder
	nilRec.Record(Event{Kind: EventDrop}) // must not panic
	if nilRec.Count(EventDrop) != 0 || nilRec.Len() != 0 || nilRec.Events() != nil {
		t.Error("nil recorder not inert")
	}
	if nilRec.Filter(func(Event) bool { return true }) != nil {
		t.Error("nil recorder Filter not inert")
	}

	var zero Recorder
	zero.Record(Event{Kind: EventDrop}) // must not panic
	if zero.Len() != 0 {
		t.Error("zero recorder stored an event")
	}

	for name, r := range map[string]*Recorder{"nil": nilRec, "zero": &zero} {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil || buf.String() != "null\n" {
			t.Errorf("%s recorder WriteJSON = %q, %v; want \"null\\n\"", name, buf.String(), err)
		}
	}
}

func TestFilter(t *testing.T) {
	r := New()
	for i := 0; i < 10; i++ {
		kind := EventTxEnd
		if i%2 == 0 {
			kind = EventFault
		}
		r.Record(Event{Time: timebase.Macrotick(i), Kind: kind, FrameID: i})
	}
	faults := r.Filter(func(e Event) bool { return e.Kind == EventFault })
	if len(faults) != 5 {
		t.Errorf("Filter faults = %d, want 5", len(faults))
	}
}

func TestWriteJSON(t *testing.T) {
	r := New()
	r.Record(Event{Time: 1, Kind: EventRelease, FrameID: 7, Seq: 2, Node: 3, Detail: "x"})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back []Event
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(back) != 1 || back[0].FrameID != 7 || back[0].Detail != "x" {
		t.Errorf("round trip = %+v", back)
	}
}

// TestConcurrentRecord covers the shared-sink path: FullRecorder itself
// is lock-free, so concurrent writers must go through a SyncSink.
func TestConcurrentRecord(t *testing.T) {
	r := New()
	sink := NewSync(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sink.Record(Event{Kind: EventTxEnd})
			}
		}()
	}
	wg.Wait()
	if r.Count(EventTxEnd) != 800 {
		t.Errorf("Count = %d, want 800", r.Count(EventTxEnd))
	}
}

func TestCountingSink(t *testing.T) {
	var s CountingSink
	s.Record(Event{Kind: EventTxStart})
	s.Record(Event{Kind: EventTxStart})
	s.Record(Event{Kind: EventDrop})
	s.Record(Event{Kind: EventKind(99)}) // out of range: total only
	if s.Count(EventTxStart) != 2 || s.Count(EventDrop) != 1 {
		t.Errorf("counts: tx-start=%d drop=%d", s.Count(EventTxStart), s.Count(EventDrop))
	}
	if s.Count(EventKind(99)) != 0 {
		t.Error("out-of-range kind should not be countable per kind")
	}
	if s.Total() != 4 {
		t.Errorf("Total = %d, want 4", s.Total())
	}

	var nilSink *CountingSink
	nilSink.Record(Event{Kind: EventDrop}) // must not panic
	if nilSink.Count(EventDrop) != 0 || nilSink.Total() != 0 {
		t.Error("nil CountingSink not inert")
	}
}

func TestCountingSinkRecordDoesNotAllocate(t *testing.T) {
	var s CountingSink
	ev := Event{Kind: EventTxEnd, FrameID: 1, Node: 2}
	if n := testing.AllocsPerRun(100, func() { s.Record(ev) }); n != 0 {
		t.Errorf("CountingSink.Record allocates %v times per call, want 0", n)
	}
}

func TestNullSink(t *testing.T) {
	var s NullSink
	s.Record(Event{Kind: EventDrop}) // must not panic; discards silently
	if n := testing.AllocsPerRun(100, func() { s.Record(Event{Kind: EventTxEnd}) }); n != 0 {
		t.Errorf("NullSink.Record allocates %v times per call, want 0", n)
	}
}

func TestSyncSinkNilSafety(t *testing.T) {
	var nilSync *SyncSink
	nilSync.Record(Event{Kind: EventDrop}) // must not panic
	NewSync(nil).Record(Event{Kind: EventDrop})
}

func TestFullRecorderOutOfRangeKind(t *testing.T) {
	r := New()
	r.Record(Event{Kind: EventKind(99)})
	r.Record(Event{Kind: EventKind(99)})
	if r.Count(EventKind(99)) != 2 {
		t.Errorf("Count(99) = %d, want 2", r.Count(EventKind(99)))
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestEventKindString(t *testing.T) {
	kinds := map[EventKind]string{
		EventRelease: "release", EventTxStart: "tx-start", EventTxEnd: "tx-end",
		EventFault: "fault", EventRetransmit: "retransmit", EventDrop: "drop",
		EventDeadlineMiss: "deadline-miss", EventKind(99): "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	r := New()
	r.Record(Event{Kind: EventTxStart, FrameID: 3})
	r.Record(Event{Kind: EventTxStart, FrameID: 3})
	r.Record(Event{Kind: EventTxStart, FrameID: 7})
	r.Record(Event{Kind: EventFault, FrameID: 3})
	r.Record(Event{Kind: EventDrop, FrameID: 7})
	s := r.Summarize()
	if s.Events != 5 {
		t.Errorf("Events = %d", s.Events)
	}
	if s.ByKind[EventTxStart] != 3 || s.ByKind[EventFault] != 1 {
		t.Errorf("ByKind = %v", s.ByKind)
	}
	if s.Frames[3] != 2 || s.Frames[7] != 1 {
		t.Errorf("Frames = %v", s.Frames)
	}
	if s.FaultsByFrame[3] != 1 {
		t.Errorf("FaultsByFrame = %v", s.FaultsByFrame)
	}
	// Nil recorder summarizes to zeros.
	var nilRec *Recorder
	if got := nilRec.Summarize(); got.Events != 0 {
		t.Errorf("nil Summarize = %+v", got)
	}
}
