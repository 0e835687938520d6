package core

import (
	"math/rand/v2"
	"testing"

	"concilium/internal/id"
	"concilium/internal/sigcrypto"
)

// destSlab is the fixture destination's slab key.
const destSlab = uint32(7)

func ledgerFixture(t *testing.T) (*CompactStewardLedger, id.ID, id.ID, sigcrypto.KeyPair) {
	t.Helper()
	r := rand.New(rand.NewPCG(821, 823))
	owner := id.Random(r)
	dest := id.Random(r)
	destKeys := sigcrypto.KeyPairFromRand(r)
	return NewCompactStewardLedger(owner), owner, dest, destKeys
}

func TestLedgerPendingOrder(t *testing.T) {
	t.Parallel()
	l, _, _, _ := ledgerFixture(t)
	l.RecordSent(destSlab, 30, 300)
	l.RecordSent(destSlab, 10, 100)
	l.RecordSent(destSlab, 20, 200)
	got := l.Pending(destSlab)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("Pending = %v, want oldest-first [10 20 30]", got)
	}
	if len(l.Pending(destSlab+1)) != 0 {
		t.Error("unknown destination has pending messages")
	}
}

func TestLedgerDigestAckClearsExactly(t *testing.T) {
	t.Parallel()
	l, owner, dest, destKeys := ledgerFixture(t)
	for _, m := range []uint64{1, 2, 3, 4} {
		l.RecordSent(destSlab, m, 100)
	}
	ack, err := NewDigestAck(destKeys, owner, dest, 200, 4, []uint64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	cleared, err := l.ConsumeAck(destSlab, dest, &ack, destKeys.Public)
	if err != nil {
		t.Fatal(err)
	}
	if len(cleared) != 2 || cleared[0] != 1 || cleared[1] != 3 {
		t.Errorf("cleared = %v, want [1 3]", cleared)
	}
	remaining := l.Pending(destSlab)
	if len(remaining) != 2 || remaining[0] != 2 || remaining[1] != 4 {
		t.Errorf("pending = %v, want [2 4]", remaining)
	}
	// The survivors are exactly what needs blame after the timeout.
	need := l.NeedsBlame(destSlab, 150)
	if len(need) != 2 || need[0] != 2 || need[1] != 4 {
		t.Errorf("NeedsBlame = %v, want [2 4]", need)
	}
}

func TestLedgerCounterAckSemantics(t *testing.T) {
	t.Parallel()
	l, owner, dest, destKeys := ledgerFixture(t)
	l.RecordSent(destSlab, 1, 100)
	l.RecordSent(destSlab, 2, 100)

	// Lossless counter ack clears the whole span.
	clean, err := NewCounterAck(destKeys, owner, dest, 200, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cleared, err := l.ConsumeAck(destSlab, dest, &clean, destKeys.Public)
	if err != nil {
		t.Fatal(err)
	}
	if len(cleared) != 2 {
		t.Errorf("lossless counter cleared %v", cleared)
	}

	// Lossy counter ack clears nothing: the steward cannot tell which
	// message died.
	l.RecordSent(destSlab, 3, 300)
	l.RecordSent(destSlab, 4, 300)
	lossy, err := NewCounterAck(destKeys, owner, dest, 400, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	cleared, err = l.ConsumeAck(destSlab, dest, &lossy, destKeys.Public)
	if err != nil {
		t.Fatal(err)
	}
	if len(cleared) != 0 {
		t.Errorf("lossy counter cleared %v, want nothing", cleared)
	}
	if got := l.NeedsBlame(destSlab, 300); len(got) != 2 {
		t.Errorf("NeedsBlame = %v, want both messages", got)
	}
}

func TestLedgerRejectsBadAcks(t *testing.T) {
	t.Parallel()
	l, owner, dest, destKeys := ledgerFixture(t)
	r := rand.New(rand.NewPCG(827, 829))
	other := id.Random(r)
	otherKeys := sigcrypto.KeyPairFromRand(r)
	l.RecordSent(destSlab, 1, 100)

	if _, err := l.ConsumeAck(destSlab, dest, nil, destKeys.Public); err == nil {
		t.Error("nil ack accepted")
	}
	// Forged signature.
	forged, err := NewCounterAck(otherKeys, owner, dest, 200, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ConsumeAck(destSlab, dest, &forged, destKeys.Public); err == nil {
		t.Error("forged ack accepted")
	}
	// Ack from a different recipient.
	misdirected, err := NewCounterAck(destKeys, owner, other, 200, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ConsumeAck(destSlab, dest, &misdirected, destKeys.Public); err == nil {
		t.Error("misdirected ack accepted")
	}
	// Ack covering someone else's traffic.
	wrongSender, err := NewCounterAck(destKeys, other, dest, 200, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ConsumeAck(destSlab, dest, &wrongSender, destKeys.Public); err == nil {
		t.Error("wrong-sender ack accepted")
	}
	// Nothing was cleared by any of the rejects.
	if got := l.Pending(destSlab); len(got) != 1 {
		t.Errorf("pending = %v after rejected acks", got)
	}
}

func TestLedgerNeedsBlameCutoff(t *testing.T) {
	t.Parallel()
	l, _, _, _ := ledgerFixture(t)
	l.RecordSent(destSlab, 1, 100)
	l.RecordSent(destSlab, 2, 500)
	// Only the older message has timed out.
	got := l.NeedsBlame(destSlab, 250)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("NeedsBlame = %v, want [1]", got)
	}
}
