package fault

import "slices"

// FlipBits flips n distinct random bits of buf in place, modelling the
// physical effect of a transient fault on the wire image: the simulator
// uses it to corrupt a real encoded frame so the receiver's CRC check —
// not injector fiat — decides whether the corruption is detected.  Flips
// at most len(buf)*8 bits; a nil or empty buf is a no-op.
func FlipBits(buf []byte, rng *RNG, n int) {
	total := len(buf) * 8
	if total == 0 || n <= 0 {
		return
	}
	if n > total {
		n = total
	}
	// The chosen bits live on the stack for the simulator's 1–3 flips.
	// A bit drawn again is rejected, so n distinct bits flip.
	var small [8]int
	flipped := small[:0]
	for len(flipped) < n {
		bit := rng.Intn(total)
		if slices.Contains(flipped, bit) {
			continue
		}
		flipped = append(flipped, bit)
		buf[bit/8] ^= 1 << uint(bit%8)
	}
}
