package sigcrypto

import (
	"math/rand/v2"
	"testing"

	"concilium/internal/id"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(7, 9)) }

func TestKeyPairSignVerify(t *testing.T) {
	t.Parallel()
	kp := KeyPairFromSeed(SeedFromRand(testRand()))
	msg := []byte("forward this message to Z")
	sig := kp.Sign(msg)
	if !Verify(kp.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(kp.Public, []byte("tampered"), sig) {
		t.Error("tampered message accepted")
	}
	other := KeyPairFromSeed(SeedFromRand(rand.New(rand.NewPCG(1, 1))))
	if Verify(other.Public, msg, sig) {
		t.Error("wrong key accepted")
	}
	if Verify(nil, msg, sig) {
		t.Error("nil key accepted")
	}
}

func TestKeyPairFromSeedDeterministic(t *testing.T) {
	t.Parallel()
	var seed [32]byte
	seed[0] = 0xaa
	a, b := KeyPairFromSeed(seed), KeyPairFromSeed(seed)
	if !a.Public.Equal(b.Public) {
		t.Error("same seed gave different keys")
	}
}

func TestAuthorityAssignsDistinctRandomIDs(t *testing.T) {
	t.Parallel()
	ca := NewAuthority(testRand())
	seen := make(map[id.ID]struct{})
	for i := 0; i < 200; i++ {
		nodeID := ca.Issue()
		if _, dup := seen[nodeID]; dup {
			t.Fatal("authority reissued an identifier")
		}
		seen[nodeID] = struct{}{}
	}
}

func BenchmarkSign(b *testing.B) {
	kp := KeyPairFromSeed(SeedFromRand(testRand()))
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = kp.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	kp := KeyPairFromSeed(SeedFromRand(testRand()))
	msg := make([]byte, 256)
	sig := kp.Sign(msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Verify(kp.Public, msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

// TestAuthorityClaimNeverReassigned pins the registry's guard on
// externally drawn identifiers: the first claim wins, reuse fails, and
// Issue never reassigns a claimed identifier.
func TestAuthorityClaimNeverReassigned(t *testing.T) {
	t.Parallel()
	r := testRand()
	ca := NewAuthority(r)
	nodeID := id.Random(r)
	if err := ca.Claim(nodeID); err != nil {
		t.Fatalf("first Claim: %v", err)
	}
	if err := ca.Claim(nodeID); err == nil {
		t.Error("duplicate Claim accepted")
	}
	for i := 0; i < 200; i++ {
		issued := ca.Issue()
		if issued == nodeID {
			t.Fatal("Issue reassigned a claimed identifier")
		}
		if err := ca.Claim(issued); err == nil {
			t.Fatal("Claim accepted an issued identifier")
		}
	}
}
