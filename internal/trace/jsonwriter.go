package trace

import (
	"encoding/json"
	"io"
	"strconv"
)

// JSONWriter is a Sink that streams the trace to an io.Writer as the
// engine emits it, without retaining events.  The bytes are exactly
// what json.NewEncoder(w) with SetIndent("", "  ") writes for the
// []Event a FullRecorder would hold: an indented array, `channel` and
// `detail` omitted when zero, and `null` for an empty trace.  Each
// Record encodes one event into a reused buffer and writes it out;
// Close writes the array's end.
//
// Record allocates nothing for an event whose Detail is printable ASCII
// free of the characters encoding/json escapes (`"`, `\`, `<`, `>`,
// `&`).  Any other Detail is encoded by json.Marshal itself, so its
// escaping stays encoding/json's on every Go version.
type JSONWriter struct {
	w   io.Writer
	buf []byte
	// open is set once the array's opening bracket has been written.
	open bool
	err  error
}

// NewJSONWriter returns a sink that streams the trace JSON to w.
func NewJSONWriter(w io.Writer) *JSONWriter {
	return &JSONWriter{w: w}
}

// Record encodes the event and writes it to the underlying writer.
// After a write error it does nothing; Close reports the error.
func (j *JSONWriter) Record(e Event) {
	if j.err != nil {
		return
	}
	b := j.buf[:0]
	if j.open {
		b = append(b, ",\n  {\n    \"time\": "...)
	} else {
		b = append(b, "[\n  {\n    \"time\": "...)
		j.open = true
	}
	b = strconv.AppendInt(b, int64(e.Time), 10)
	b = append(b, ",\n    \"kind\": "...)
	b = strconv.AppendInt(b, int64(e.Kind), 10)
	b = append(b, ",\n    \"frameId\": "...)
	b = strconv.AppendInt(b, int64(e.FrameID), 10)
	b = append(b, ",\n    \"seq\": "...)
	b = strconv.AppendInt(b, e.Seq, 10)
	b = append(b, ",\n    \"node\": "...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	if e.Channel != 0 {
		b = append(b, ",\n    \"channel\": "...)
		b = strconv.AppendInt(b, int64(e.Channel), 10)
	}
	if e.Detail != "" {
		b = append(b, ",\n    \"detail\": "...)
		b = appendDetail(b, e.Detail)
	}
	b = append(b, "\n  }"...)
	j.buf = b
	_, j.err = j.w.Write(b)
}

// Close ends the array (or writes `null` when no event was recorded)
// and returns the first write error.
func (j *JSONWriter) Close() error {
	if j.err != nil {
		return j.err
	}
	end := "null\n"
	if j.open {
		end = "\n]\n"
	}
	_, j.err = io.WriteString(j.w, end)
	return j.err
}

// appendDetail appends s as a JSON string: verbatim between quotes when
// every byte is printable ASCII that encoding/json leaves unescaped,
// and as json.Marshal's encoding otherwise.
func appendDetail(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
