package frame

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/flexray-go/coefficient/internal/timebase"
)

func testFrame() *Frame {
	return &Frame{
		ID:         42,
		CycleCount: 7,
		Indicators: Indicators{Sync: true},
		Payload:    []byte{0xDE, 0xAD, 0xBE, 0xEF},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, ch := range []Channel{ChannelA, ChannelB} {
		f := testFrame()
		buf, err := f.Encode(ch)
		if err != nil {
			t.Fatalf("Encode(%v) error: %v", ch, err)
		}
		if len(buf) != f.EncodedLen() {
			t.Fatalf("encoded %d bytes, EncodedLen() = %d", len(buf), f.EncodedLen())
		}
		got, err := Decode(buf, ch)
		if err != nil {
			t.Fatalf("Decode(%v) error: %v", ch, err)
		}
		if got.ID != f.ID || got.CycleCount != f.CycleCount {
			t.Errorf("decoded ID/cycle = %d/%d, want %d/%d", got.ID, got.CycleCount, f.ID, f.CycleCount)
		}
		if got.Indicators != f.Indicators {
			t.Errorf("decoded indicators = %+v, want %+v", got.Indicators, f.Indicators)
		}
		if !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("decoded payload = %x, want %x", got.Payload, f.Payload)
		}
	}
}

func TestEncodeOddPayloadPads(t *testing.T) {
	f := testFrame()
	f.Payload = []byte{1, 2, 3}
	buf, err := f.Encode(ChannelA)
	if err != nil {
		t.Fatalf("Encode() error: %v", err)
	}
	got, err := Decode(buf, ChannelA)
	if err != nil {
		t.Fatalf("Decode() error: %v", err)
	}
	want := []byte{1, 2, 3, 0}
	if !bytes.Equal(got.Payload, want) {
		t.Errorf("payload = %x, want %x (zero padded)", got.Payload, want)
	}
}

func TestCrossChannelCRCMismatch(t *testing.T) {
	f := testFrame()
	buf, err := f.Encode(ChannelA)
	if err != nil {
		t.Fatalf("Encode() error: %v", err)
	}
	if _, err := Decode(buf, ChannelB); !errors.Is(err, ErrFrameCRC) {
		t.Fatalf("Decode on wrong channel = %v, want ErrFrameCRC", err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	f := testFrame()
	buf, err := f.Encode(ChannelA)
	if err != nil {
		t.Fatalf("Encode() error: %v", err)
	}
	// Corrupt every single bit, one at a time; decode must never succeed
	// silently with different content.
	for i := range buf {
		for bit := 0; bit < 8; bit++ {
			corrupted := append([]byte(nil), buf...)
			corrupted[i] ^= 1 << bit
			got, err := Decode(corrupted, ChannelA)
			if err != nil {
				continue // detected, good
			}
			// Bits of the trailing pad in odd payloads are the only
			// legitimate undetected changes; here payload is even.
			if got.ID != f.ID || !bytes.Equal(got.Payload, f.Payload) ||
				got.CycleCount != f.CycleCount || got.Indicators != f.Indicators {
				t.Fatalf("bit flip at byte %d bit %d undetected and content changed", i, bit)
			}
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	f := testFrame()
	buf, err := f.Encode(ChannelA)
	if err != nil {
		t.Fatalf("Encode() error: %v", err)
	}
	for _, n := range []int{0, 4, HeaderBytes + TrailerBytes - 1, len(buf) - 1} {
		if _, err := Decode(buf[:n], ChannelA); !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(%d bytes) = %v, want ErrTruncated", n, err)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Frame)
		wantErr error
	}{
		{"zero ID", func(f *Frame) { f.ID = 0 }, ErrFrameID},
		{"huge ID", func(f *Frame) { f.ID = MaxFrameID + 1 }, ErrFrameID},
		{"oversized payload", func(f *Frame) { f.Payload = make([]byte, MaxPayloadBytes+1) }, ErrPayload},
		{"negative cycle", func(f *Frame) { f.CycleCount = -1 }, ErrCycleCount},
		{"cycle too large", func(f *Frame) { f.CycleCount = MaxCycleCount + 1 }, ErrCycleCount},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := testFrame()
			tt.mutate(f)
			if err := f.Validate(); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate() = %v, want errors.Is(..., %v)", err, tt.wantErr)
			}
		})
	}
}

func TestStartupRequiresSync(t *testing.T) {
	f := testFrame()
	f.Indicators.Sync = false
	f.Indicators.Startup = true
	if err := f.Validate(); err == nil {
		t.Fatal("Validate() = nil, want error for startup frame without sync")
	}
}

func TestNullFrameIndicatorInverted(t *testing.T) {
	f := testFrame()
	f.Indicators.NullFrame = true
	buf, err := f.Encode(ChannelA)
	if err != nil {
		t.Fatalf("Encode() error: %v", err)
	}
	// Bit 37 of the header (bit 5 of byte 0) must be 0 for a null frame.
	if buf[0]>>5&1 != 0 {
		t.Error("null frame indicator should be encoded as 0 on the wire")
	}
	got, err := Decode(buf, ChannelA)
	if err != nil {
		t.Fatalf("Decode() error: %v", err)
	}
	if !got.Indicators.NullFrame {
		t.Error("decoded NullFrame = false, want true")
	}
}

func TestChannelString(t *testing.T) {
	if ChannelA.String() != "A" || ChannelB.String() != "B" {
		t.Error("Channel.String() mismatch")
	}
	if Channel(5).String() != "Channel(5)" {
		t.Errorf("Channel(5).String() = %q", Channel(5).String())
	}
}

func TestWireBits(t *testing.T) {
	// 0 payload: 5+1 + (5+0+3)*10 + 2 = 88.
	if got := WireBits(0); got != 88 {
		t.Errorf("WireBits(0) = %d, want 88", got)
	}
	// Odd payload rounds up to even.
	if WireBits(3) != WireBits(4) {
		t.Errorf("WireBits(3) = %d, WireBits(4) = %d, want equal", WireBits(3), WireBits(4))
	}
	if got := WireBits(-5); got != 88 {
		t.Errorf("WireBits(-5) = %d, want 88 (clamped)", got)
	}
	// Monotone in payload size.
	if WireBits(10) >= WireBits(100) {
		t.Error("WireBits should grow with payload")
	}
}

func TestDuration(t *testing.T) {
	cfg := timebase.Config{MacrotickDuration: time.Microsecond}
	// 88 bits at 10 Mbit/s = 8.8µs -> 9 macroticks.
	if got := Duration(0, DefaultBitRate, cfg); got != 9 {
		t.Errorf("Duration(0) = %d, want 9", got)
	}
	// Minimum of 1 macrotick even on absurdly fast buses.
	if got := Duration(0, 1<<40, cfg); got != 1 {
		t.Errorf("Duration tiny = %d, want 1", got)
	}
}

// Property: encode/decode round-trips for arbitrary valid frames on both
// channels.
func TestRoundTripProperty(t *testing.T) {
	f := func(id uint16, cycle uint8, payload []byte, sync, preamble, null bool) bool {
		fr := &Frame{
			ID:         int(id%MaxFrameID) + 1,
			CycleCount: int(cycle % (MaxCycleCount + 1)),
			Indicators: Indicators{Sync: sync, PayloadPreamble: preamble, NullFrame: null},
			Payload:    payload,
		}
		if len(fr.Payload) > MaxPayloadBytes {
			fr.Payload = fr.Payload[:MaxPayloadBytes]
		}
		if len(fr.Payload)%2 == 1 {
			fr.Payload = fr.Payload[:len(fr.Payload)-1]
		}
		for _, ch := range []Channel{ChannelA, ChannelB} {
			buf, err := fr.Encode(ch)
			if err != nil {
				return false
			}
			got, err := Decode(buf, ch)
			if err != nil {
				return false
			}
			if got.ID != fr.ID || got.CycleCount != fr.CycleCount ||
				got.Indicators != fr.Indicators || !bytes.Equal(got.Payload, fr.Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Decode never panics on arbitrary bytes — it either errors or
// returns a frame that re-encodes consistently.
func TestDecodeRobustnessProperty(t *testing.T) {
	f := func(raw []byte) bool {
		for _, ch := range []Channel{ChannelA, ChannelB} {
			fr, err := Decode(raw, ch)
			if err != nil {
				continue
			}
			// A frame that decoded cleanly must re-encode to the same
			// prefix of the buffer.
			buf, err := fr.Encode(ch)
			if err != nil {
				// Decoded frames can carry a zero frame ID (invalid to
				// encode); that is a detectable validation error, not a
				// panic.
				continue
			}
			if len(buf) > len(raw) {
				return false
			}
			for i := range buf {
				if buf[i] != raw[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// crc24Bitwise is the bit-serial frame CRC straight from the
// specification, one shift per bit: the oracle for the table-driven crc24.
func crc24Bitwise(data []byte, init uint32) uint32 {
	crc := init
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			inBit := uint32(b>>uint(i)) & 1
			top := crc >> 23 & 1
			crc = crc << 1 & 0xFFFFFF
			if inBit^top == 1 {
				crc ^= frameCRCPoly & 0xFFFFFF
			}
		}
	}
	return crc
}

func TestCRC24MatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := make([]byte, HeaderBytes+MaxPayloadBytes)
	for round := 0; round < 4; round++ {
		rng.Read(data)
		for n := 0; n <= len(data); n++ {
			for _, init := range []uint32{FrameCRCInitA, FrameCRCInitB} {
				if got, want := crc24(data[:n], init), crc24Bitwise(data[:n], init); got != want {
					t.Fatalf("round %d, %d bytes, init %#x: crc24 = %#x, bit-serial %#x",
						round, n, init, got, want)
				}
			}
		}
	}
}
