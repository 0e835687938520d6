package core

import (
	"crypto/ed25519"
	"fmt"
	"sort"

	"concilium/internal/id"
	"concilium/internal/netsim"
)

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

// Recent returns the verdicts currently in the slab's window, oldest
// first — the evidence bundle a formal accusation archives (§3.4).
func (vw *CompactVerdictWindow) Recent(judged uint32) []Verdict {
	pw := vw.per[judged]
	if pw == nil {
		return nil
	}
	out := make([]Verdict, 0, pw.filled)
	start := pw.next - pw.filled
	for i := 0; i < pw.filled; i++ {
		out = append(out, pw.verdicts[((start+i)%vw.cfg.W+vw.cfg.W)%vw.cfg.W])
	}
	return out
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

// CompactStewardLedger is the bookkeeping side of §3.7's batched
// acknowledgments, keyed by destination slab: a steward records every
// message it forwarded toward a destination, consumes that
// destination's signed batch acks, and answers "which messages still
// need a blame evaluation". With digest acks the answer is exact; with
// counter acks the steward only learns the loss rate of a span and
// treats the whole span as suspect when it is non-zero — the
// precision/bandwidth trade-off the paper describes. It takes no lock:
// the traffic plane runs entirely inside simulator callbacks on one
// goroutine (the DESIGN.md §9 discipline).
type CompactStewardLedger struct {
	owner   id.ID
	pending map[uint32]map[uint64]netsim.Time // per destination slab: msgID → sent time
}

// NewCompactStewardLedger creates an empty ledger for owner.
func NewCompactStewardLedger(owner id.ID) *CompactStewardLedger {
	return &CompactStewardLedger{owner: owner, pending: make(map[uint32]map[uint64]netsim.Time)}
}

// RecordSent notes a forwarded message awaiting acknowledgment from the
// destination slab.
func (l *CompactStewardLedger) RecordSent(dest uint32, msgID uint64, at netsim.Time) {
	m := l.pending[dest]
	if m == nil {
		m = make(map[uint64]netsim.Time)
		l.pending[dest] = m
	}
	m[msgID] = at
}

// Pending returns the message IDs still awaiting acknowledgment from
// the destination slab, oldest first.
func (l *CompactStewardLedger) Pending(dest uint32) []uint64 {
	m := l.pending[dest]
	out := make([]uint64, 0, len(m))
	for msgID := range m {
		out = append(out, msgID)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := m[out[i]], m[out[j]]
		if ti != tj {
			return ti < tj
		}
		return out[i] < out[j]
	})
	return out
}

// ConsumeAck applies a verified batch acknowledgment from the node at
// slab dest (identifier destID) and returns the message IDs the ack
// proves delivered, now cleared. Digest acks clear exactly the covered
// messages; counter acks with zero loss clear every pending message in
// the span; a lossy counter ack clears nothing, since the steward cannot
// tell which messages died.
func (l *CompactStewardLedger) ConsumeAck(dest uint32, destID id.ID, ack *BatchAck, destPub ed25519.PublicKey) ([]uint64, error) {
	if ack == nil {
		return nil, fmt.Errorf("core: nil batch ack")
	}
	if err := ack.Verify(destPub); err != nil {
		return nil, err
	}
	if ack.By != destID {
		return nil, fmt.Errorf("core: ack signed by %s, expected %s", ack.By.Short(), destID.Short())
	}
	if ack.From != l.owner {
		return nil, fmt.Errorf("core: ack covers messages from %s, not %s", ack.From.Short(), l.owner.Short())
	}
	m := l.pending[dest]
	if len(m) == 0 {
		return nil, nil
	}
	var cleared []uint64
	switch {
	case len(ack.Digests) > 0:
		for msgID := range m {
			if ack.Covers(l.owner, msgID) {
				cleared = append(cleared, msgID)
				delete(m, msgID)
			}
		}
	case ack.LossRate() == 0:
		for msgID := range m {
			cleared = append(cleared, msgID)
			delete(m, msgID)
		}
	}
	sort.Slice(cleared, func(i, j int) bool { return cleared[i] < cleared[j] })
	return cleared, nil
}

// NeedsBlame returns the messages sent to the destination slab at or
// before cutoff that remain unacknowledged — the drops the steward
// must now judge.
func (l *CompactStewardLedger) NeedsBlame(dest uint32, cutoff netsim.Time) []uint64 {
	var out []uint64
	for msgID, at := range l.pending[dest] {
		if at <= cutoff {
			out = append(out, msgID)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
