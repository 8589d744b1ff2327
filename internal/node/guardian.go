package node

// Guardian is a per-node bus guardian: an independent watchdog beside the
// communication controller that only opens the transmit path during the
// node's scheduled windows (the paper's node architecture, Section II-B,
// places it between the CC and the bus driver).  Because the guardian runs
// its own schedule table, a CC with a drifted clock or babbling host cannot
// drive the bus outside its slots — the fault is contained at the node
// boundary instead of corrupting other nodes' traffic.
//
// A Guardian holds the node's schedule table: the static slots it owns.
// The window rules live in the simulator's timing layer: a node with a
// guardian has its misaligned scheduled frames vetoed (sim's staticGate)
// and its babble outside owned slots contained (babbleCollision).  A nil
// guardian owns nothing (guardians disabled).
type Guardian struct {
	// owned maps static slot numbers (== frame IDs) this node may use.
	owned map[int]bool
}

// NewGuardian returns a guardian for a node owning the given static slots.
func NewGuardian(ownedSlots []int) *Guardian {
	g := &Guardian{owned: make(map[int]bool, len(ownedSlots))}
	for _, s := range ownedSlots {
		g.owned[s] = true
	}
	return g
}

// Owns reports whether the guardian's schedule table contains the slot.
func (g *Guardian) Owns(slot int) bool { return g != nil && g.owned[slot] }
