package node

import "testing"

// A nil guardian means guardians are disabled: its schedule table is
// empty, so the timing layer applies no guardian rule to the node.
func TestGuardianNilPermitsEverything(t *testing.T) {
	var g *Guardian
	for _, slot := range []int{0, 1, 5, 1023} {
		if g.Owns(slot) {
			t.Fatalf("nil guardian owns nothing, but Owns(%d) is true", slot)
		}
	}
}

func TestGuardianOwns(t *testing.T) {
	g := NewGuardian([]int{1, 9})
	if !g.Owns(1) || !g.Owns(9) || g.Owns(2) {
		t.Fatal("Owns must reflect the schedule table")
	}
}
