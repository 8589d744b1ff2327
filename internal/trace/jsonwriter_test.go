package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// oracleJSON is the encoding JSONWriter must reproduce byte for byte:
// encoding/json's indented encoding of the event slice a FullRecorder
// returns (nil when the trace is empty).
func oracleJSON(t testing.TB, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(events); err != nil {
		t.Fatalf("oracle Encode: %v", err)
	}
	return buf.Bytes()
}

// streamJSON records the events through a JSONWriter and returns what it
// wrote.
func streamJSON(t testing.TB, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf)
	for _, e := range events {
		jw.Record(e)
	}
	if err := jw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// hostileDetails covers every escaping class encoding/json has: HTML
// characters, quote and backslash, control bytes with and without short
// escapes, U+2028/U+2029, invalid UTF-8, DEL and multi-byte runes.
var hostileDetails = []string{
	"", "stolen-slot", "crc-frame", "normal-passive", "x",
	`<>&"\`, "a<b", "&amp;", `say "hi"`, `C:\path`,
	"\x00\x01\x1f", "\b\f", "\n\r\t", "tab\there",
	"\u2028\u2029", "line\u2028sep", "\xff\xfe", "bad\xc3(utf8",
	"\x7f", "del\x7f", "é", "日本", "\U0001F600", "~ !#$%'()*+,-./:;=?@[]^_`{|}",
}

func randomDetail(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	return hostileDetails[rng.Intn(len(hostileDetails))]
}

func randomInt64(rng *rand.Rand) int64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.MinInt64
	case 2:
		return math.MaxInt64
	case 3:
		return -rng.Int63n(1 << 20)
	default:
		return rng.Int63n(1 << 40)
	}
}

func randomEvent(rng *rand.Rand) Event {
	e := Event{
		Time:    timebase.Macrotick(randomInt64(rng)),
		Kind:    EventKind(rng.Intn(kindCount+4) - 2),
		FrameID: int(randomInt64(rng)),
		Seq:     randomInt64(rng),
		Node:    rng.Intn(11) - 5,
		Detail:  randomDetail(rng),
	}
	if rng.Intn(2) == 0 {
		e.Channel = frame.Channel(rng.Intn(5) - 2)
	}
	return e
}

func TestJSONWriterMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(0x15014))
	for trial := 0; trial < 500; trial++ {
		var events []Event
		n := rng.Intn(20)
		if trial == 0 {
			n = 0 // the empty trace encodes as null
		}
		for i := 0; i < n; i++ {
			events = append(events, randomEvent(rng))
		}
		want := oracleJSON(t, events)
		if got := streamJSON(t, events); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: JSONWriter wrote\n%s\nencoding/json wrote\n%s", trial, got, want)
		}
		rec := New()
		for _, e := range events {
			rec.Record(e)
		}
		var replayed bytes.Buffer
		if err := rec.WriteJSON(&replayed); err != nil {
			t.Fatalf("trial %d: WriteJSON: %v", trial, err)
		}
		if !bytes.Equal(replayed.Bytes(), want) {
			t.Fatalf("trial %d: WriteJSON wrote\n%s\nencoding/json wrote\n%s", trial, replayed.Bytes(), want)
		}
	}
}

func FuzzJSONWriter(f *testing.F) {
	f.Add(int64(10), 2, 3, int64(0), 1, 1, "stolen-slot")
	f.Add(int64(0), 0, 0, int64(0), 0, 0, "")
	f.Add(int64(-1), -7, -2, int64(math.MinInt64), -3, -1, `<>&"\`)
	f.Add(int64(math.MaxInt64), 99, 2047, int64(1), 4, 2, "\b\f\u2028\xff\x7f")
	f.Fuzz(func(t *testing.T, tm int64, kind, frameID int, seq int64, node, channel int, detail string) {
		e := Event{
			Time: timebase.Macrotick(tm), Kind: EventKind(kind), FrameID: frameID,
			Seq: seq, Node: node, Channel: frame.Channel(channel), Detail: detail,
		}
		// A second, field-free event exercises the separator and the
		// omitted fields.
		events := []Event{e, {Time: timebase.Macrotick(tm)}}
		if got, want := streamJSON(t, events), oracleJSON(t, events); !bytes.Equal(got, want) {
			t.Fatalf("JSONWriter wrote\n%s\nencoding/json wrote\n%s", got, want)
		}
	})
}

func TestJSONWriterRecordDoesNotAllocate(t *testing.T) {
	jw := NewJSONWriter(io.Discard)
	ev := Event{Time: 123456, Kind: EventTxStart, FrameID: 42, Seq: 7, Node: 3,
		Channel: frame.ChannelB, Detail: "stolen-slot"}
	jw.Record(ev) // warm the buffer
	if n := testing.AllocsPerRun(100, func() { jw.Record(ev) }); n != 0 {
		t.Errorf("JSONWriter.Record allocates %v times per call, want 0", n)
	}
}

// failingWriter accepts ok writes, then fails every write.
type failingWriter struct {
	ok, writes int
}

var errFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.ok {
		return 0, errFull
	}
	return len(p), nil
}

func TestJSONWriterCloseReturnsFirstWriteError(t *testing.T) {
	w := &failingWriter{ok: 1}
	jw := NewJSONWriter(w)
	for i := 0; i < 3; i++ {
		jw.Record(Event{Kind: EventTxEnd})
	}
	if err := jw.Close(); !errors.Is(err, errFull) {
		t.Fatalf("Close = %v, want %v", err, errFull)
	}
	if w.writes != 2 {
		t.Errorf("%d writes reached the writer, want 2 (none after the first error)", w.writes)
	}
}
