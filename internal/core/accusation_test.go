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
func buildGuiltyResult(t testing.TB, judged id.ID, at netsim.Time) BlameResult {
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
func buildChain(t testing.TB, ids []testIdentity) []Accusation {
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
	for k, want := range []testIdentity{ids[1], ids[2]} {
		if got := chain.Links[k].Accused; got != want.id {
			t.Errorf("intermediate accused %d = %s, want %s", k, got.Short(), want.id.Short())
		}
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

// TestSnapshotSignAndValidate: a signed snapshot verifies under its
// prober's key and under no other.
func TestSnapshotSignAndValidate(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(131, 137))
	ids, _ := newIdentities(2, r)
	snap := &Snapshot{
		Prober: ids[0].id,
		At:     netsim.Time(0).Add(10 * time.Minute),
		Observations: []tomography.LinkObservation{
			{Link: 1, Up: true}, {Link: 2, Up: false},
		},
	}
	snap.Sign(ids[0].keys)
	if err := snap.VerifySignature(ids[0].keys.Public); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if err := snap.VerifySignature(ids[1].keys.Public); !errors.Is(err, ErrBadSnapshotSignature) {
		t.Errorf("snapshot verified under another host's key: %v", err)
	}
}

// TestSnapshotValidatorRejections names the error each refusal of
// admitSnapshot returns: a stranger and a departed member are unknown
// signers, and a bit flipped after signing, in the signature or in any
// payload field, fails the signature. FuzzSignedSnapshot checks that
// refusals archive nothing.
func TestSnapshotValidatorRejections(t *testing.T) {
	t.Parallel()
	cs := buildTestCompactSystem(t, nil)
	members := cs.AliveIDs()
	departed := members[len(members)/2]
	if err := cs.FailNode(departed); err != nil {
		t.Fatal(err)
	}
	member := cs.AliveIDs()[0]
	i, _ := cs.Overlay.IndexOf(member)
	signed := func(prober id.ID, kp sigcrypto.KeyPair) *Snapshot {
		s := &Snapshot{
			Prober:       prober,
			At:           cs.Sim.Now(),
			Observations: []tomography.LinkObservation{{Link: 1, Up: true}},
		}
		s.Sign(kp)
		return s
	}
	if err := cs.admitSnapshot(signed(member, cs.Keys(i))); err != nil {
		t.Fatalf("member's snapshot refused: %v", err)
	}

	stranger, _ := newIdentities(1, rand.New(rand.NewPCG(141, 143)))
	if err := cs.admitSnapshot(signed(stranger[0].id, stranger[0].keys)); !errors.Is(err, ErrUnknownSigner) {
		t.Errorf("stranger: %v", err)
	}
	if err := cs.admitSnapshot(signed(departed, cs.keysOfSlab(cs.departedSlab[departed]))); !errors.Is(err, ErrUnknownSigner) {
		t.Errorf("departed signer: %v", err)
	}
	if err := cs.admitSnapshot(signed(member, stranger[0].keys)); !errors.Is(err, ErrBadSnapshotSignature) {
		t.Errorf("member named, another key signed: %v", err)
	}
	for name, tamper := range map[string]func(*Snapshot){
		"signature bit":   func(s *Snapshot) { s.Signature[7] ^= 1 },
		"time":            func(s *Snapshot) { s.At++ },
		"status":          func(s *Snapshot) { s.Observations[0].Up = false },
		"observed link":   func(s *Snapshot) { s.Observations[0].Link = 2 },
		"dropped records": func(s *Snapshot) { s.Observations = nil },
	} {
		s := signed(member, cs.Keys(i))
		tamper(s)
		if err := cs.admitSnapshot(s); !errors.Is(err, ErrBadSnapshotSignature) {
			t.Errorf("%s flipped after signing: %v", name, err)
		}
	}
}

// TestRevisionChainVerifyRejectsSplice holds Verify to NewRevisionChain's
// structure rules. Chains arrive decoded off the wire, never through the
// constructor, so valid links from unrelated chains must not verify as
// one chain — neither two disjoint accusations (which would clear a
// host nobody blamed) nor links for different messages.
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
