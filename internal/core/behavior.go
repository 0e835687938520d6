package core

// Behavior describes how a simulated node deviates from the protocol.
// The zero value is fully honest.
type Behavior struct {
	// DropsMessages makes the node silently discard messages it
	// committed to forward — the forwarding fault Concilium exists to
	// catch.
	DropsMessages bool
	// InvertsProbes makes the node publish adversarially flipped probe
	// results when it colludes against a judgment (§4.3): claiming links
	// up when an innocent peer is judged, down when a colluder is.
	InvertsProbes bool
	// DropProb makes the node a probabilistic dropper: each message it
	// should forward is silently discarded with this probability. Tuned
	// below M/W such a node slips under the (w,m) sliding window — the
	// adversary campaign's selective dropper.
	DropProb float64
	// DropPeriod makes the node a deterministic selective dropper: it
	// discards every DropPeriod-th message it is asked to forward
	// (0 disables).
	DropPeriod int
	// Clique labels the colluding group the node belongs to (0 means
	// independent). Same-clique nodes corroborate each other's forged
	// observations and co-sign accusations; the clique-discounting rule
	// in the blame engine collapses them into one witness.
	Clique int
}

// Honest reports whether the node follows the protocol.
func (b Behavior) Honest() bool {
	return !b.DropsMessages && !b.InvertsProbes &&
		b.DropProb == 0 && b.DropPeriod == 0 && b.Clique == 0
}
