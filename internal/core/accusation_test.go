package core

import (
	"crypto/ed25519"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// testIdentity is a keyed overlay member for protocol tests.
type testIdentity struct {
	id   id.ID
	keys sigcrypto.KeyPair
}

func newIdentities(n int, r *rand.Rand) ([]testIdentity, KeyDirectory) {
	ids := make([]testIdentity, n)
	dir := make(map[id.ID]ed25519.PublicKey, n)
	for i := range ids {
		ids[i] = testIdentity{id: id.Random(r), keys: sigcrypto.KeyPairFromSeed(sigcrypto.SeedFromRand(r))}
		dir[ids[i].id] = ids[i].keys.Public
	}
	return ids, func(x id.ID) (ed25519.PublicKey, bool) {
		k, ok := dir[x]
		return k, ok
	}
}

func TestCommitmentSignAndVerify(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(61, 67))
	ids, _ := newIdentities(3, r)
	c := NewCommitment(ids[1].keys, ids[0].id, ids[1].id, ids[2].id, 42, 1000)
	if err := c.Verify(ids[1].keys.Public); err != nil {
		t.Fatalf("valid commitment rejected: %v", err)
	}
	// Wrong key.
	if err := c.Verify(ids[0].keys.Public); err == nil {
		t.Error("commitment verified under wrong key")
	}
	// Tampered fields.
	for i, mutate := range []func(*Commitment){
		func(c *Commitment) { c.MsgID = 43 },
		func(c *Commitment) { c.Dest = ids[0].id },
		func(c *Commitment) { c.At = 2000 },
		func(c *Commitment) { c.From = ids[2].id },
	} {
		bad := c
		mutate(&bad)
		if err := bad.Verify(ids[1].keys.Public); err == nil {
			t.Errorf("tampered commitment %d accepted", i)
		}
	}
}

// buildGuiltyResult constructs a blame result with no exculpatory
// evidence: full blame on the judged node.
func buildGuiltyResult(t *testing.T, judged id.ID, at netsim.Time) BlameResult {
	t.Helper()
	eng, err := newHandArchive(0).engine(DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(judged, []topology.LinkID{1, 2}, at)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Guilty {
		t.Fatal("expected guilty result")
	}
	return res
}

func TestAccusationLifecycle(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(71, 73))
	ids, keys := newIdentities(3, r)
	accuser, accused, dest := ids[0], ids[1], ids[2]

	res := buildGuiltyResult(t, accused.id, 5000)
	commit := NewCommitment(accused.keys, accuser.id, accused.id, dest.id, 42, 4900)
	acc, err := NewAccusation(accuser.keys, accuser.id, res, 42, []topology.LinkID{1, 2}, commit)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Verify(keys, 0.4); err != nil {
		t.Fatalf("valid accusation rejected: %v", err)
	}

	// Forged blame value.
	forged := acc
	forged.Blame = 0.99
	forged.Signature = accuser.keys.Sign([]byte("resign")) // wrong anyway
	if err := forged.Verify(keys, 0.4); err == nil {
		t.Error("tampered accusation accepted")
	}

	// Evidence that does not support the blame: re-sign with mismatched
	// blame and check the recomputation catches it.
	mismatched := acc
	mismatched.Blame = 0.5
	mismatched.Signature = accuser.keys.Sign(mismatched.payload())
	if err := mismatched.Verify(keys, 0.4); !errors.Is(err, ErrBlameMismatch) {
		t.Errorf("blame mismatch not caught: %v", err)
	}

	// Below-threshold accusations are rejected by verifiers with higher
	// thresholds.
	if err := acc.Verify(keys, 1.0+1e-9); err == nil {
		t.Error("threshold not enforced")
	}
}

func TestAccusationRequiresCommitment(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(81, 83))
	ids, keys := newIdentities(4, r)
	accuser, accused, other, dest := ids[0], ids[1], ids[2], ids[3]
	res := buildGuiltyResult(t, accused.id, 5000)

	// Commitment from the wrong node: rejected at construction.
	wrongVia := NewCommitment(other.keys, accuser.id, other.id, dest.id, 42, 4900)
	if _, err := NewAccusation(accuser.keys, accuser.id, res, 42, nil, wrongVia); !errors.Is(err, ErrCommitmentMismatch) {
		t.Errorf("wrong-via commitment: %v", err)
	}
	// Commitment for a different message: rejected at construction.
	wrongMsg := NewCommitment(accused.keys, accuser.id, accused.id, dest.id, 7, 4900)
	if _, err := NewAccusation(accuser.keys, accuser.id, res, 42, nil, wrongMsg); !errors.Is(err, ErrCommitmentMismatch) {
		t.Errorf("wrong-message commitment: %v", err)
	}
	// A commitment forged by the accuser itself (spurious accusation,
	// §3.6): signature check under the accused's key fails.
	forged := NewCommitment(accuser.keys, accuser.id, accused.id, dest.id, 42, 4900)
	acc, err := NewAccusation(accuser.keys, accuser.id, res, 42, nil, forged)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Verify(keys, 0.4); !errors.Is(err, ErrBadCommitmentSignature) {
		t.Errorf("forged commitment: %v", err)
	}
	// Non-guilty results cannot become accusations.
	innocent := res
	innocent.Guilty = false
	good := NewCommitment(accused.keys, accuser.id, accused.id, dest.id, 42, 4900)
	if _, err := NewAccusation(accuser.keys, accuser.id, innocent, 42, nil, good); err == nil {
		t.Error("non-guilty accusation built")
	}
}

// TestAccusationRejectsForeignCommitment: a commitment the victim gave
// to one upstream host does not let a different host accuse it (§3.6).
// The commitment's signature is genuine, so only its From field tells
// the replay apart.
func TestAccusationRejectsForeignCommitment(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(85, 87))
	ids, keys := newIdentities(4, r)
	upstream, victim, framer, dest := ids[0], ids[1], ids[2], ids[3]
	res := buildGuiltyResult(t, victim.id, 5000)
	given := NewCommitment(victim.keys, upstream.id, victim.id, dest.id, 42, 4900)
	if _, err := NewAccusation(framer.keys, framer.id, res, 42, nil, given); !errors.Is(err, ErrCommitmentMismatch) {
		t.Errorf("accusation built over a commitment given to another host: %v", err)
	}
	// Signed by hand, as an attacker would: third parties reject it.
	framed := Accusation{
		Accuser: framer.id, Accused: victim.id, MsgID: 42, At: res.At,
		Blame: res.Blame, Evidence: res.Evidence, Commitment: given,
	}
	framed.Signature = framer.keys.Sign(framed.payload())
	if err := framed.Verify(keys, 0.4); !errors.Is(err, ErrCommitmentMismatch) {
		t.Errorf("replayed commitment verified: %v", err)
	}
}

// buildChain constructs the paper's A→B→C→D scenario: D dropped the
// message, so A blames B, B blames C, C blames D, and revision walks the
// blame down to D.
func buildChain(t *testing.T, ids []testIdentity) []Accusation {
	t.Helper()
	const msgID = 99
	dest := ids[len(ids)-1].id
	var links []Accusation
	for i := 0; i+1 < len(ids); i++ {
		accuser, accused := ids[i], ids[i+1]
		res := buildGuiltyResult(t, accused.id, 5000)
		commit := NewCommitment(accused.keys, accuser.id, accused.id, dest, msgID, 4900)
		acc, err := NewAccusation(accuser.keys, accuser.id, res, msgID, []topology.LinkID{1, 2}, commit)
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, acc)
	}
	return links
}

func TestRevisionChain(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(91, 93))
	ids, keys := newIdentities(4, r) // A, B, C, D
	links := buildChain(t, ids)

	chain, err := NewRevisionChain(links)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.Verify(keys, 0.4); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	if got := chain.Culprit(); got != ids[3].id {
		t.Errorf("culprit = %s, want D", got.Short())
	}
	ex := chain.Exonerated()
	if len(ex) != 2 || ex[0] != ids[1].id || ex[1] != ids[2].id {
		t.Errorf("exonerated = %v, want [B C]", ex)
	}
}

func TestRevisionChainExtend(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(101, 103))
	ids, keys := newIdentities(4, r)
	links := buildChain(t, ids)

	// Start with only A's accusation against B; B rebuts by extending
	// with its own verdict against C, then C's against D (§3.5).
	chain, err := NewRevisionChain(links[:1])
	if err != nil {
		t.Fatal(err)
	}
	if chain.Culprit() != ids[1].id {
		t.Fatal("initial culprit should be B")
	}
	chain, err = chain.Extend(links[1])
	if err != nil {
		t.Fatal(err)
	}
	chain, err = chain.Extend(links[2])
	if err != nil {
		t.Fatal(err)
	}
	if chain.Culprit() != ids[3].id {
		t.Errorf("culprit after revision = %s, want D", chain.Culprit().Short())
	}
	if err := chain.Verify(keys, 0.4); err != nil {
		t.Fatalf("extended chain invalid: %v", err)
	}
	// Extending with an unrelated accusation breaks the chain.
	unrelated := links[0]
	if _, err := chain.Extend(unrelated); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("disconnected extension: %v", err)
	}
}

// TestRevisionChainRejectsMixedDestinations: two verdicts about the
// same message number whose commitments name different destinations are
// about different messages, so they do not chain.
func TestRevisionChainRejectsMixedDestinations(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(115, 117))
	ids, keys := newIdentities(5, r) // A, B, C, and two destinations
	links := buildChain(t, ids[:4])[:2]
	other := ids[4]
	res := buildGuiltyResult(t, ids[2].id, 5000)
	commit := NewCommitment(ids[2].keys, ids[1].id, ids[2].id, other.id, 99, 4900)
	spliced, err := NewAccusation(ids[1].keys, ids[1].id, res, 99, []topology.LinkID{1, 2}, commit)
	if err != nil {
		t.Fatal(err)
	}
	links[1] = spliced
	if _, err := NewRevisionChain(links); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("chain across two destinations built: %v", err)
	}
	decoded := &RevisionChain{Links: links} // as read from the DHT
	if err := decoded.Verify(keys, 0.4); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("chain across two destinations verified: %v", err)
	}
}

func TestRevisionChainValidation(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(111, 113))
	ids, _ := newIdentities(4, r)
	links := buildChain(t, ids)

	if _, err := NewRevisionChain(nil); err == nil {
		t.Error("empty chain accepted")
	}
	// Out-of-order links do not connect.
	if _, err := NewRevisionChain([]Accusation{links[1], links[0]}); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("reversed chain: %v", err)
	}
	// Different message IDs break the chain even if identities connect.
	altered := links[1]
	altered.MsgID = 12345
	if _, err := NewRevisionChain([]Accusation{links[0], altered}); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("cross-message chain: %v", err)
	}
}

func TestRevisionChainVerifyCatchesBadLink(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(121, 123))
	ids, keys := newIdentities(4, r)
	links := buildChain(t, ids)
	// Corrupt the middle link's signature.
	links[1].Signature[0] ^= 0xff
	chain, err := NewRevisionChain(links)
	if err != nil {
		t.Fatal(err)
	}
	if err := chain.Verify(keys, 0.4); err == nil {
		t.Error("chain with corrupt link verified")
	}
}

func TestSnapshotSignAndValidate(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(131, 137))
	ids, keys := newIdentities(4, r)
	prober := ids[0]
	now := netsim.Time(0).Add(10 * time.Minute)

	entries := []AdvertEntry{
		{Peer: ids[1].id, Freshness: sigcrypto.NewTimestamp(ids[1].keys, ids[1].id, int64(now.Add(-30*time.Second)))},
		{Peer: ids[2].id, Freshness: sigcrypto.NewTimestamp(ids[2].keys, ids[2].id, int64(now.Add(-45*time.Second)))},
	}
	snap := &Snapshot{
		Prober: prober.id,
		At:     now,
		Observations: []tomography.LinkObservation{
			{Link: 1, Up: true}, {Link: 2, Up: false},
		},
		Entries:     entries,
		LeafSpacing: 1e30,
	}
	snap.Sign(prober.keys)

	v := &SnapshotValidator{
		Keys:             keys,
		MaxEntryAge:      2 * time.Minute,
		JumpTest:         DensityTest{Gamma: 1.2},
		LocalOccupancy:   2,
		LeafGamma:        2,
		LocalLeafSpacing: 1e30,
	}
	if err := v.Validate(snap); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

}

func TestSnapshotValidatorRejections(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(141, 143))
	ids, keys := newIdentities(4, r)
	prober := ids[0]
	now := netsim.Time(0).Add(10 * time.Minute)

	freshEntry := func(who testIdentity, at netsim.Time) AdvertEntry {
		return AdvertEntry{Peer: who.id, Freshness: sigcrypto.NewTimestamp(who.keys, who.id, int64(at))}
	}
	base := func() *Snapshot {
		s := &Snapshot{
			Prober:      prober.id,
			At:          now,
			Entries:     []AdvertEntry{freshEntry(ids[1], now.Add(-time.Minute)), freshEntry(ids[2], now.Add(-time.Minute))},
			LeafSpacing: 1e30,
		}
		s.Sign(prober.keys)
		return s
	}
	v := &SnapshotValidator{
		Keys:             keys,
		MaxEntryAge:      2 * time.Minute,
		JumpTest:         DensityTest{Gamma: 1.2},
		LocalOccupancy:   2,
		LeafGamma:        2,
		LocalLeafSpacing: 1e30,
	}

	// Unsigned / tampered snapshot.
	s := base()
	s.LeafSpacing = 5
	if err := v.Validate(s); !errors.Is(err, ErrBadSnapshotSignature) {
		t.Errorf("tampered snapshot: %v", err)
	}

	// Stale entry (inflation attack with an old timestamp, §3.1).
	s = base()
	s.Entries[0] = freshEntry(ids[1], now.Add(-time.Hour))
	s.Sign(prober.keys)
	if err := v.Validate(s); !errors.Is(err, ErrStaleEntry) {
		t.Errorf("stale entry: %v", err)
	}

	// Future-dated entry.
	s = base()
	s.Entries[0] = freshEntry(ids[1], now.Add(time.Minute))
	s.Sign(prober.keys)
	if err := v.Validate(s); !errors.Is(err, ErrFutureEntry) {
		t.Errorf("future entry: %v", err)
	}

	// Stolen timestamp: ids[1]'s timestamp attached to ids[2]'s entry.
	s = base()
	ts := sigcrypto.NewTimestamp(ids[1].keys, ids[1].id, int64(now.Add(-time.Minute)))
	s.Entries[1] = AdvertEntry{Peer: ids[2].id, Freshness: ts}
	s.Sign(prober.keys)
	if err := v.Validate(s); !errors.Is(err, ErrBadEntrySignature) {
		t.Errorf("stolen timestamp: %v", err)
	}

	// Density failure: advertising 2 entries while local has 10.
	sparse := &SnapshotValidator{
		Keys: keys, MaxEntryAge: 2 * time.Minute,
		JumpTest: DensityTest{Gamma: 1.2}, LocalOccupancy: 10,
	}
	s = base()
	if err := sparse.Validate(s); !errors.Is(err, ErrTableTooSparse) {
		t.Errorf("sparse table: %v", err)
	}

	// Leaf-set density failure: advertised spacing far wider than local.
	leafy := &SnapshotValidator{
		Keys: keys, MaxEntryAge: 2 * time.Minute,
		JumpTest: DensityTest{Gamma: 1.2}, LocalOccupancy: 2,
		LeafGamma: 1.5, LocalLeafSpacing: 1e29,
	}
	s = base() // LeafSpacing 1e30 > 1.5 * 1e29
	if err := leafy.Validate(s); !errors.Is(err, ErrLeafSetTooSparse) {
		t.Errorf("sparse leaf set: %v", err)
	}

	// Unknown signer.
	s = base()
	s.Prober = id.Random(r)
	s.Sign(prober.keys)
	if err := v.Validate(s); !errors.Is(err, ErrUnknownSigner) {
		t.Errorf("unknown signer: %v", err)
	}
}

// TestRevisionChainVerifyRejectsSplice holds Verify to NewRevisionChain's
// structure rules. Chains arrive decoded off the wire, never through the
// constructor, so valid links from unrelated chains must not verify as
// one chain — neither two disjoint accusations (whose Exonerated would
// clear a host nobody blamed) nor links for different messages.
func TestRevisionChainVerifyRejectsSplice(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(131, 133))
	ids, keys := newIdentities(8, r)
	ab := buildChain(t, ids[:4])[0] // A→B on message 99
	xy := buildChain(t, ids[4:])[0] // X→Y on message 99
	spliced := &RevisionChain{Links: []Accusation{ab, xy}}
	if err := spliced.Verify(keys, 0.4); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("spliced A→B, X→Y chain: %v", err)
	}

	// B→C signed for message 7 connects by identity but not by message.
	b, c, d := ids[1], ids[2], ids[3]
	commit := NewCommitment(c.keys, b.id, c.id, d.id, 7, 4900)
	bc7, err := NewAccusation(b.keys, b.id, buildGuiltyResult(t, c.id, 5000), 7, []topology.LinkID{1, 2}, commit)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc7.Verify(keys, 0.4); err != nil {
		t.Fatalf("B→C on message 7 alone: %v", err)
	}
	crossMsg := &RevisionChain{Links: []Accusation{ab, bc7}}
	if err := crossMsg.Verify(keys, 0.4); !errors.Is(err, ErrBrokenChain) {
		t.Errorf("chain across messages 99 and 7: %v", err)
	}
	if err := (&RevisionChain{}).Verify(keys, 0.4); err == nil {
		t.Error("empty chain verified")
	}
}

// TestAccusationVerifyRejectsWrappedProbes: the signed payload carries
// each evidence probe count as 32 bits, so a count outside [0, 2^32)
// would verify under the signature of its truncation while encoding to
// different bytes — a replayed chain that dodges duplicate detection.
func TestAccusationVerifyRejectsWrappedProbes(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(141, 143))
	ids, keys := newIdentities(4, r)
	acc := buildChain(t, ids)[0]
	if err := acc.Verify(keys, 0.4); err != nil {
		t.Fatal(err)
	}
	for _, probes := range []int{acc.Evidence[0].Probes + 1<<32, -1} {
		bad := acc
		bad.Evidence = append([]LinkConfidence(nil), acc.Evidence...)
		bad.Evidence[0].Probes = probes
		if err := bad.Verify(keys, 0.4); err == nil {
			t.Errorf("evidence with %d probes verified", probes)
		}
	}
}
