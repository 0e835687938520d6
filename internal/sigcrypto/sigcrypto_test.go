package sigcrypto

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"concilium/internal/id"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(7, 9)) }

func TestKeyPairSignVerify(t *testing.T) {
	t.Parallel()
	kp := KeyPairFromRand(testRand())
	msg := []byte("forward this message to Z")
	sig := kp.Sign(msg)
	if !Verify(kp.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(kp.Public, []byte("tampered"), sig) {
		t.Error("tampered message accepted")
	}
	other := KeyPairFromRand(rand.New(rand.NewPCG(1, 1)))
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

func TestAuthorityIssueAndVerify(t *testing.T) {
	t.Parallel()
	r := testRand()
	ca := NewAuthority(KeyPairFromRand(r), r)
	node := KeyPairFromRand(r)
	cert, err := ca.Issue("10.0.0.1:9000", node.Public)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Addr != "10.0.0.1:9000" {
		t.Errorf("addr = %q", cert.Addr)
	}
	if err := VerifyCertificate(ca.PublicKey(), &cert); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}

	// A different authority must not validate it.
	other := NewAuthority(KeyPairFromRand(r), r)
	if err := VerifyCertificate(other.PublicKey(), &cert); err == nil {
		t.Error("foreign CA accepted certificate")
	}

	// Tampering with any bound field must invalidate the signature.
	tampered := cert
	tampered.Addr = "10.0.0.2:9000"
	if err := VerifyCertificate(ca.PublicKey(), &tampered); err == nil {
		t.Error("tampered addr accepted")
	}
	tampered = cert
	tampered.NodeID = id.MustParse("deadbeefdeadbeefdeadbeefdeadbeef")
	if err := VerifyCertificate(ca.PublicKey(), &tampered); err == nil {
		t.Error("tampered node id accepted")
	}
	if err := VerifyCertificate(ca.PublicKey(), nil); err == nil {
		t.Error("nil certificate accepted")
	}
}

func TestAuthorityAssignsDistinctRandomIDs(t *testing.T) {
	t.Parallel()
	r := testRand()
	ca := NewAuthority(KeyPairFromRand(r), r)
	node := KeyPairFromRand(r)
	seen := make(map[id.ID]struct{})
	for i := 0; i < 200; i++ {
		cert, err := ca.Issue("h", node.Public)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := seen[cert.NodeID]; dup {
			t.Fatal("authority reissued an identifier")
		}
		seen[cert.NodeID] = struct{}{}
	}
}

func TestAuthorityRejectsBadKey(t *testing.T) {
	t.Parallel()
	r := testRand()
	ca := NewAuthority(KeyPairFromRand(r), r)
	if _, err := ca.Issue("h", []byte{1, 2, 3}); err == nil {
		t.Error("short public key accepted")
	}
}

func TestTimestampRoundTrip(t *testing.T) {
	t.Parallel()
	r := testRand()
	kp := KeyPairFromRand(r)
	nid := id.Random(r)
	ts := NewTimestamp(kp, nid, 123456789)
	if err := VerifyTimestamp(kp.Public, ts); err != nil {
		t.Fatalf("valid timestamp rejected: %v", err)
	}
	forged := ts
	forged.At = 987654321
	if err := VerifyTimestamp(kp.Public, forged); err == nil {
		t.Error("forged time accepted — inflation attack would succeed")
	}
	stolen := ts
	stolen.NodeID = id.Random(r)
	if err := VerifyTimestamp(kp.Public, stolen); err == nil {
		t.Error("timestamp reassigned to another node accepted")
	}
}

func BenchmarkSign(b *testing.B) {
	kp := KeyPairFromRand(testRand())
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = kp.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	kp := KeyPairFromRand(testRand())
	msg := make([]byte, 256)
	sig := kp.Sign(msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !Verify(kp.Public, msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

func TestAuthorityIssueForAndClaim(t *testing.T) {
	t.Parallel()
	r := testRand()
	ca := NewAuthority(KeyPairFromRand(r), r)
	node := KeyPairFromRand(r)
	nodeID := id.Random(r)

	// IssueFor must produce a certificate indistinguishable from Issue's
	// for the same identifier: verifiable, field-for-field bound.
	cert, err := ca.IssueFor("10.0.0.1:9000", nodeID, node.Public)
	if err != nil {
		t.Fatal(err)
	}
	if cert.NodeID != nodeID || cert.Addr != "10.0.0.1:9000" {
		t.Errorf("cert fields wrong: %+v", cert)
	}
	if err := VerifyCertificate(ca.PublicKey(), &cert); err != nil {
		t.Fatalf("IssueFor certificate rejected: %v", err)
	}
	if _, err := ca.IssueFor("h", nodeID, []byte{1, 2}); err == nil {
		t.Error("short public key accepted")
	}
	// Deterministic: same inputs, same signature (parallel issuance must
	// be scheduling-independent).
	again, err := ca.IssueFor("10.0.0.1:9000", nodeID, node.Public)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cert.Signature, again.Signature) {
		t.Error("IssueFor signatures differ across calls with identical inputs")
	}

	// Claim guards the registry: first claim wins, reuse fails, and
	// Issue never reassigns a claimed identifier.
	if err := ca.Claim(nodeID); err != nil {
		t.Fatalf("first Claim: %v", err)
	}
	if err := ca.Claim(nodeID); err == nil {
		t.Error("duplicate Claim accepted")
	}
	for i := 0; i < 200; i++ {
		c, err := ca.Issue("h", node.Public)
		if err != nil {
			t.Fatal(err)
		}
		if c.NodeID == nodeID {
			t.Fatal("Issue reassigned a claimed identifier")
		}
	}
}
