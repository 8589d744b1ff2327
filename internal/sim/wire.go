package sim

import (
	"errors"

	"github.com/flexray-go/coefficient/internal/fault"
	"github.com/flexray-go/coefficient/internal/frame"
	"github.com/flexray-go/coefficient/internal/signal"
	"github.com/flexray-go/coefficient/internal/timebase"
)

// seedCRC salts the bit-flip stream of the CRC receive path.
const seedCRC uint64 = 0xC2C_F11B_0B17_0004

// crcOutcome decides a corrupted transmission's fate at the receiver by
// running the real wire format: the frame is encoded, 1–3 bits are flipped
// (a transient fault's physical effect), and the receiver's header/frame
// CRC check — not injector fiat — classifies the corruption.  Returns
// delivered=false with the CRC verdict detail when the corruption is
// detected; delivered=true in the astronomically rare case the flips slip
// past both CRCs (the frame arrives, silently corrupted — exactly the
// residual error probability CRCs are sized against).
func (e *engine) crcOutcome(m *signal.Message, ch frame.Channel, at timebase.Macrotick) (bool, string) {
	// Message.Validate keeps the ID and payload within the frame format.
	f := frame.Frame{
		ID:         m.ID,
		CycleCount: int(e.opts.Config.CycleOf(at) % (frame.MaxCycleCount + 1)),
		Payload:    make([]byte, m.Bytes()),
	}
	buf, err := f.Encode(ch)
	if err != nil {
		// Unencodable messages keep the injector's verdict.
		return false, ""
	}
	flips := 1 + e.crcRNG.Intn(3)
	fault.FlipBits(buf, e.crcRNG, flips)
	if _, err := frame.Decode(buf, ch); err != nil {
		switch {
		case errors.Is(err, frame.ErrHeaderCRC):
			return false, "crc-header"
		case errors.Is(err, frame.ErrFrameCRC):
			return false, "crc-frame"
		case errors.Is(err, frame.ErrTruncated):
			return false, "crc-truncated"
		default:
			return false, "crc-detected"
		}
	}
	return true, ""
}
