package reputation

import (
	"math/rand/v2"
	"testing"

	"concilium/internal/id"
	"concilium/internal/sigcrypto"
)

type identity struct {
	id   id.ID
	keys sigcrypto.KeyPair
}

func identities(n int, r *rand.Rand) []identity {
	out := make([]identity, n)
	for i := range out {
		out[i] = identity{id: id.Random(r), keys: sigcrypto.KeyPairFromSeed(sigcrypto.SeedFromRand(r))}
	}
	return out
}

func TestVoteSignAndVerify(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(1, 2))
	ids := identities(2, r)
	v := NewVote(ids[0].keys, ids[0].id, ids[1].id, 100)
	if err := v.Verify(ids[0].keys.Public); err != nil {
		t.Fatalf("valid vote rejected: %v", err)
	}
	forged := v
	forged.Subject = ids[0].id
	if err := forged.Verify(ids[0].keys.Public); err == nil {
		t.Error("re-targeted vote accepted")
	}
	if err := v.Verify(ids[1].keys.Public); err == nil {
		t.Error("wrong key accepted")
	}
}

func TestBoardRecordAndQuorum(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(3, 4))
	ids := identities(5, r)
	subject := ids[4]
	b := NewBoard()
	for i := 0; i < 3; i++ {
		v := NewVote(ids[i].keys, ids[i].id, subject.id, 100)
		if err := b.Record(v, ids[i].keys.Public); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.NoConfidence(subject.id, nil); got != 3 {
		t.Errorf("NoConfidence = %d, want 3", got)
	}
	if !b.PoorPeer(subject.id, nil, 3) {
		t.Error("quorum of 3 not reached with 3 votes")
	}
	if b.PoorPeer(subject.id, nil, 4) {
		t.Error("quorum of 4 reached with 3 votes")
	}
	// Default quorum is 1.
	if !b.PoorPeer(subject.id, nil, 0) {
		t.Error("default quorum failed")
	}
}

func TestBoardDeduplicatesVoters(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(5, 6))
	ids := identities(2, r)
	b := NewBoard()
	for at := 0; at < 5; at++ {
		v := NewVote(ids[0].keys, ids[0].id, ids[1].id, 100)
		if err := b.Record(v, ids[0].keys.Public); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.NoConfidence(ids[1].id, nil); got != 1 {
		t.Errorf("repeated votes counted %d times", got)
	}
}

func TestBoardRejectsInvalid(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(7, 8))
	ids := identities(2, r)
	b := NewBoard()
	// Bad signature.
	v := NewVote(ids[0].keys, ids[0].id, ids[1].id, 100)
	v.Signature[0] ^= 1
	if err := b.Record(v, ids[0].keys.Public); err == nil {
		t.Error("corrupt vote recorded")
	}
	// Self-vote.
	self := NewVote(ids[0].keys, ids[0].id, ids[0].id, 100)
	if err := b.Record(self, ids[0].keys.Public); err == nil {
		t.Error("self-vote recorded")
	}
}

func TestBoardTrustFilter(t *testing.T) {
	t.Parallel()
	// Votes from untrusted (e.g. formally accused) hosts don't count —
	// this is what stops a smear campaign by detected colluders.
	r := rand.New(rand.NewPCG(9, 10))
	ids := identities(4, r)
	subject := ids[3]
	b := NewBoard()
	for i := 0; i < 3; i++ {
		v := NewVote(ids[i].keys, ids[i].id, subject.id, 100)
		if err := b.Record(v, ids[i].keys.Public); err != nil {
			t.Fatal(err)
		}
	}
	distrustFirstTwo := func(x id.ID) bool {
		return x != ids[0].id && x != ids[1].id
	}
	if got := b.NoConfidence(subject.id, distrustFirstTwo); got != 1 {
		t.Errorf("trusted NoConfidence = %d, want 1", got)
	}
}
