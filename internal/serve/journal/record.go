package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// Record is one journaled event.  Kind names the event; the remaining
// fields are populated per kind (admitted records carry the full spec,
// terminal records the error message).  The journal itself does not
// interpret records beyond framing them — the recovery state machine in
// internal/serve does.
type Record struct {
	// Kind is the event name: "admitted", "rejected", "running", or a
	// terminal state ("done", "failed", "shed", "quarantined").
	Kind string `json:"kind"`
	// Seq is the admission sequence number (admitted records only); it
	// defines the deterministic re-enqueue order after a crash.
	Seq int `json:"seq,omitempty"`
	// JobID identifies the job the event belongs to.
	JobID string `json:"jobId"`
	// Hash is the canonical scenario hash (admitted records only).
	Hash string `json:"hash,omitempty"`
	// Crit is the wire name of the job's criticality (admitted only).
	Crit string `json:"crit,omitempty"`
	// Spec is the canonical JSON of the submitted spec (admitted only).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Error is the terminal error message, when there is one.
	Error string `json:"error,omitempty"`
}

// Record kinds.  The terminal kinds deliberately match the wire names of
// the serve package's terminal states.
const (
	KindAdmitted = "admitted"
	KindRejected = "rejected"
	KindRunning  = "running"
)

// Frame layout: a fixed header of payload length and CRC, both uint32
// little-endian, followed by the JSON payload.  The CRC is
// Castagnoli-polynomial CRC-32 over the payload bytes.
const (
	frameHeader = 8
	// maxRecordBytes bounds one record; a length prefix beyond it means
	// the header itself is corrupt.
	maxRecordBytes = 1 << 20
)

// castagnoli is the CRC table shared by encode and decode.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode frames rec as length ‖ crc ‖ payload.
func Encode(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds the %d-byte frame limit", len(payload), maxRecordBytes)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// EncodeAll frames every record back to back — the layout Compact and
// the tests' crash-prefix builders write.
func EncodeAll(recs []Record) ([]byte, error) {
	var out []byte
	for _, rec := range recs {
		frame, err := Encode(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, frame...)
	}
	return out, nil
}

// decodeAll scans data for valid frames and returns the decoded records
// plus the byte length of the valid prefix.  Scanning stops at the first
// damage — a truncated header or payload (torn tail), an implausible
// length, a CRC mismatch, or undecodable JSON — because framing cannot
// be trusted past a corrupt record; everything from that offset on is
// the caller's to quarantine.
//
//lint:deterministic
func decodeAll(data []byte) (recs []Record, goodLen int) {
	off := 0
	for off+frameHeader <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n == 0 || n > maxRecordBytes || off+frameHeader+n > len(data) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		recs = append(recs, rec)
		off += frameHeader + n
	}
	return recs, off
}
