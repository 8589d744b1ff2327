package fault

import "slices"

// SizeTable exposes the frame-size memo table to the external tests.
type SizeTable = sizeTable

// Prob is sizeTable.prob.
func (t *SizeTable) Prob(ber float64, bits int) (float64, error) { return t.prob(ber, bits) }

// Holds reports whether the table memoizes the size, so that its next
// Prob is a hit.
func (t *SizeTable) Holds(bits int) bool {
	return bits > 0 && bits <= 0xFFFF && slices.Contains(t.bits[:], uint16(bits))
}
