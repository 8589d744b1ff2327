// Package frame implements the FlexRay v2.1 frame wire format.
//
// A FlexRay frame has three parts:
//
//	header (5 bytes): 5 indicator bits, 11-bit frame ID, 7-bit payload
//	                  length (in 2-byte words), 11-bit header CRC, 6-bit
//	                  cycle count
//	payload (0-254 bytes, always an even number of bytes)
//	trailer (3 bytes): 24-bit frame CRC
//
// The header CRC protects the sync and startup indicator bits, the frame ID
// and the payload length (20 bits) with the polynomial x^11 + x^9 + x^8 +
// x^7 + x^2 + 1 (0x385) and initialization vector 0x01A.  The frame CRC
// protects header plus payload with the 24-bit polynomial 0x5D6DCB; its
// initialization vector differs per channel (0xFEDCBA on A, 0xABCDEF on B)
// so that a frame cannot be mistaken for one transmitted on the other
// channel.
package frame

import (
	"errors"
	"fmt"

	"github.com/flexray-go/coefficient/internal/timebase"
)

// Wire format limits from the FlexRay v2.1 specification.
const (
	// MaxFrameID is the largest representable frame ID (11 bits).
	MaxFrameID = 2047
	// MaxPayloadBytes is the maximum payload size.
	MaxPayloadBytes = 254
	// HeaderBytes is the encoded header size.
	HeaderBytes = 5
	// TrailerBytes is the encoded trailer (frame CRC) size.
	TrailerBytes = 3
	// MaxCycleCount is the largest representable cycle count (6 bits).
	MaxCycleCount = 63
)

// CRC parameters from the FlexRay v2.1 specification.
const (
	headerCRCPoly = 0x385 // x^11+x^9+x^8+x^7+x^2+1
	headerCRCInit = 0x01A
	frameCRCPoly  = 0x5D6DCB
	// FrameCRCInitA is the frame CRC initialization vector for channel A.
	FrameCRCInitA = 0xFEDCBA
	// FrameCRCInitB is the frame CRC initialization vector for channel B.
	FrameCRCInitB = 0xABCDEF
)

// Errors returned by encoding and decoding.
var (
	// ErrFrameID is returned for out-of-range frame IDs.
	ErrFrameID = errors.New("frame: frame ID out of range")
	// ErrPayload is returned for invalid payload sizes.
	ErrPayload = errors.New("frame: invalid payload size")
	// ErrTruncated is returned when decoding a buffer shorter than the
	// declared frame size.
	ErrTruncated = errors.New("frame: truncated buffer")
	// ErrHeaderCRC is returned when the header CRC does not verify.
	ErrHeaderCRC = errors.New("frame: header CRC mismatch")
	// ErrFrameCRC is returned when the frame CRC does not verify.
	ErrFrameCRC = errors.New("frame: frame CRC mismatch")
	// ErrCycleCount is returned for out-of-range cycle counts.
	ErrCycleCount = errors.New("frame: cycle count out of range")
)

// Channel identifies one of the two FlexRay channels.
type Channel int

// The two channels of a dual-channel FlexRay cluster.
const (
	ChannelA Channel = iota + 1
	ChannelB
)

// String implements fmt.Stringer.
func (c Channel) String() string {
	switch c {
	case ChannelA:
		return "A"
	case ChannelB:
		return "B"
	default:
		return fmt.Sprintf("Channel(%d)", int(c))
	}
}

// crcInit returns the frame CRC initialization vector for the channel.
func (c Channel) crcInit() uint32 {
	if c == ChannelB {
		return FrameCRCInitB
	}
	return FrameCRCInitA
}

// Indicators holds the five frame indicator bits.
type Indicators struct {
	// Reserved is the reserved bit (must be zero on transmit).
	Reserved bool
	// PayloadPreamble signals a network-management vector (static) or
	// message ID (dynamic) at the start of the payload.
	PayloadPreamble bool
	// NullFrame indicates the payload carries no valid data.  Note the
	// on-wire encoding is inverted (0 = null frame); this struct stores
	// the logical value.
	NullFrame bool
	// Sync marks a sync frame used for clock synchronization.
	Sync bool
	// Startup marks a startup frame; only sync frames may be startup
	// frames.
	Startup bool
}

// Frame is a decoded FlexRay frame.
type Frame struct {
	// ID is the frame identifier (1..MaxFrameID) that binds the frame to
	// a slot.
	ID int
	// CycleCount is the communication cycle (mod 64) of transmission.
	CycleCount int
	// Indicators holds the frame indicator bits.
	Indicators Indicators
	// Payload is the application payload.  Its length must be even and at
	// most MaxPayloadBytes; Encode pads odd payloads with a zero byte.
	Payload []byte
}

// Validate checks frame field ranges.
func (f *Frame) Validate() error {
	if f.ID < 1 || f.ID > MaxFrameID {
		return fmt.Errorf("%w: %d", ErrFrameID, f.ID)
	}
	if len(f.Payload) > MaxPayloadBytes {
		return fmt.Errorf("%w: %d bytes", ErrPayload, len(f.Payload))
	}
	if f.CycleCount < 0 || f.CycleCount > MaxCycleCount {
		return fmt.Errorf("%w: %d", ErrCycleCount, f.CycleCount)
	}
	if f.Indicators.Startup && !f.Indicators.Sync {
		return errors.New("frame: startup frame must also be a sync frame")
	}
	return nil
}

// payloadWords returns the payload length in 2-byte words, rounding up.
func (f *Frame) payloadWords() int {
	return (len(f.Payload) + 1) / 2
}

// EncodedLen returns the encoded frame size in bytes.
func (f *Frame) EncodedLen() int {
	return HeaderBytes + 2*f.payloadWords() + TrailerBytes
}

// Encode serializes the frame for the given channel, computing both CRCs.
func (f *Frame) Encode(ch Channel) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	words := f.payloadWords()
	buf := make([]byte, f.EncodedLen())

	// Header layout (bit 39 = first on wire):
	//  39     reserved
	//  38     payload preamble indicator
	//  37     null frame indicator (0 = null frame)
	//  36     sync frame indicator
	//  35     startup frame indicator
	//  34..24 frame ID
	//  23..17 payload length (words)
	//  16..6  header CRC
	//  5..0   cycle count
	var hdr uint64
	setBit := func(pos uint, v bool) {
		if v {
			hdr |= 1 << pos
		}
	}
	setBit(39, f.Indicators.Reserved)
	setBit(38, f.Indicators.PayloadPreamble)
	setBit(37, !f.Indicators.NullFrame) // inverted on wire
	setBit(36, f.Indicators.Sync)
	setBit(35, f.Indicators.Startup)
	hdr |= uint64(f.ID&0x7FF) << 24
	hdr |= uint64(words&0x7F) << 17

	crcIn := headerCRCInput(f.Indicators.Sync, f.Indicators.Startup, f.ID, words)
	hcrc := crc11(crcIn, 20)
	hdr |= uint64(hcrc&0x7FF) << 6
	hdr |= uint64(f.CycleCount & 0x3F)

	for i := 0; i < HeaderBytes; i++ {
		buf[i] = byte(hdr >> (8 * (HeaderBytes - 1 - i)))
	}
	copy(buf[HeaderBytes:], f.Payload) // odd payloads pad with the zero byte

	fcrc := crc24(buf[:HeaderBytes+2*words], ch.crcInit())
	buf[len(buf)-3] = byte(fcrc >> 16)
	buf[len(buf)-2] = byte(fcrc >> 8)
	buf[len(buf)-1] = byte(fcrc)
	return buf, nil
}

// Decode parses and verifies an encoded frame received on the given channel.
func Decode(buf []byte, ch Channel) (*Frame, error) {
	if len(buf) < HeaderBytes+TrailerBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, len(buf))
	}
	var hdr uint64
	for i := 0; i < HeaderBytes; i++ {
		hdr = hdr<<8 | uint64(buf[i])
	}
	f := &Frame{
		ID:         int(hdr >> 24 & 0x7FF),
		CycleCount: int(hdr & 0x3F),
		Indicators: Indicators{
			Reserved:        hdr>>39&1 == 1,
			PayloadPreamble: hdr>>38&1 == 1,
			NullFrame:       hdr>>37&1 == 0, // inverted on wire
			Sync:            hdr>>36&1 == 1,
			Startup:         hdr>>35&1 == 1,
		},
	}
	words := int(hdr >> 17 & 0x7F)
	wantLen := HeaderBytes + 2*words + TrailerBytes
	if len(buf) < wantLen {
		return nil, fmt.Errorf("%w: have %d bytes, header declares %d", ErrTruncated, len(buf), wantLen)
	}

	crcIn := headerCRCInput(f.Indicators.Sync, f.Indicators.Startup, f.ID, words)
	if got, want := uint32(hdr>>6&0x7FF), crc11(crcIn, 20); got != want {
		return nil, fmt.Errorf("%w: got %#x, want %#x", ErrHeaderCRC, got, want)
	}
	wireCRC := uint32(buf[wantLen-3])<<16 | uint32(buf[wantLen-2])<<8 | uint32(buf[wantLen-1])
	if want := crc24(buf[:HeaderBytes+2*words], ch.crcInit()); wireCRC != want {
		return nil, fmt.Errorf("%w: got %#x, want %#x", ErrFrameCRC, wireCRC, want)
	}
	f.Payload = append([]byte(nil), buf[HeaderBytes:HeaderBytes+2*words]...)
	return f, nil
}

// headerCRCInput assembles the 20 protected header bits: sync indicator,
// startup indicator, 11-bit frame ID, 7-bit payload length.
func headerCRCInput(sync, startup bool, id, words int) uint32 {
	var v uint32
	if sync {
		v |= 1 << 19
	}
	if startup {
		v |= 1 << 18
	}
	v |= uint32(id&0x7FF) << 7
	v |= uint32(words & 0x7F)
	return v
}

// crc11 computes the FlexRay header CRC over the low `bits` bits of v,
// MSB first.
func crc11(v uint32, bits uint) uint32 {
	crc := uint32(headerCRCInit)
	for i := bits; i > 0; i-- {
		inBit := v >> (i - 1) & 1
		top := crc >> 10 & 1
		crc = crc << 1 & 0x7FF
		if inBit^top == 1 {
			crc ^= headerCRCPoly & 0x7FF
		}
	}
	return crc
}

// crc24Table maps the byte entering the frame CRC register (XORed with
// the register's top byte) to what eight MSB-first shifts through
// frameCRCPoly feed back into it.
var crc24Table = makeCRC24Table()

func makeCRC24Table() (t [256]uint32) {
	for i := range t {
		crc := uint32(i) << 16
		for bit := 0; bit < 8; bit++ {
			if crc&0x800000 != 0 {
				crc = crc<<1&0xFFFFFF ^ frameCRCPoly
			} else {
				crc = crc << 1 & 0xFFFFFF
			}
		}
		t[i] = crc
	}
	return t
}

// crc24 computes the FlexRay frame CRC over data with the given
// initialization vector, MSB first, one byte per table lookup.
func crc24(data []byte, init uint32) uint32 {
	crc := init
	for _, b := range data {
		crc = (crc<<8 ^ crc24Table[byte(crc>>16)^b]) & 0xFFFFFF
	}
	return crc
}

// Wire-encoding overhead of one frame, in bits.  Each transmitted byte is
// preceded by a byte start sequence (2 bits); the frame is bracketed by the
// transmission start sequence (modelled at its minimum of 5 bits), the frame
// start sequence (1 bit) and the frame end sequence (2 bits).
const (
	bitsPerWireByte = 10
	tssBits         = 5
	fssBits         = 1
	fesBits         = 2
)

// WireBits returns the number of bus bits needed to transmit `payloadBytes`
// of payload including header, trailer and encoding overhead.
func WireBits(payloadBytes int) int {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	if payloadBytes%2 == 1 {
		payloadBytes++
	}
	total := HeaderBytes + payloadBytes + TrailerBytes
	return tssBits + fssBits + total*bitsPerWireByte + fesBits
}

// Duration returns the transmission duration in macroticks of a frame with
// `payloadBytes` of payload at `bitRate` bits/s given the cluster timing
// configuration.  The result is rounded up to whole macroticks and is at
// least one.
func Duration(payloadBytes int, bitRate int64, cfg timebase.Config) timebase.Macrotick {
	bits := int64(WireBits(payloadBytes))
	ns := bits * int64(1e9) / bitRate
	mtNs := int64(cfg.MacrotickDuration)
	d := timebase.Macrotick((ns + mtNs - 1) / mtNs)
	if d < 1 {
		d = 1
	}
	return d
}

// DefaultBitRate is the standard FlexRay bus speed of 10 Mbit/s.
const DefaultBitRate int64 = 10_000_000
