package core

import "concilium/internal/id"

// Accusation bookkeeping for the traffic plane, keyed by slab position:
// slab rows are append-only and survive departures, so a slab key stays
// valid across churn where an identifier would need a liveness check —
// and a uint32 map key hashes in one word where the 16-byte identifier
// hashes in two.

// CompactVerdictWindow tracks, per judged slab, the most recent W
// verdicts and reports when the formal-accusation threshold trips.
type CompactVerdictWindow struct {
	cfg WindowConfig
	per map[uint32]*peerWindow
}

// NewCompactVerdictWindow creates an empty window set.
func NewCompactVerdictWindow(cfg WindowConfig) (*CompactVerdictWindow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &CompactVerdictWindow{cfg: cfg, per: make(map[uint32]*peerWindow)}, nil
}

// Add records a verdict against the judged peer's slab and reports
// whether that peer now meets the formal-accusation threshold (at
// least M guilty among the last W).
func (vw *CompactVerdictWindow) Add(judged uint32, v Verdict) bool {
	pw := vw.per[judged]
	if pw == nil {
		pw = &peerWindow{verdicts: make([]Verdict, vw.cfg.W)}
		vw.per[judged] = pw
	}
	if pw.filled == vw.cfg.W {
		if pw.verdicts[pw.next].Guilty {
			pw.guilty--
		}
	} else {
		pw.filled++
	}
	pw.verdicts[pw.next] = v
	pw.next = (pw.next + 1) % vw.cfg.W
	if v.Guilty {
		pw.guilty++
	}
	return pw.guilty >= vw.cfg.M
}

// GuiltyCount returns the number of guilty verdicts currently in the
// slab's window.
func (vw *CompactVerdictWindow) GuiltyCount(judged uint32) int {
	if pw := vw.per[judged]; pw != nil {
		return pw.guilty
	}
	return 0
}

// GuiltyCount returns the number of guilty verdicts in nid's verdict
// window: a current member resolves through the ring, a departed one
// through the slab it held, and an identifier never seen has none.
func (cs *CompactSystem) GuiltyCount(nid id.ID) int {
	if p, ok := cs.slabOf(nid); ok {
		return cs.Window.GuiltyCount(p)
	}
	return 0
}
