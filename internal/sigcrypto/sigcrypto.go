// Package sigcrypto implements Concilium's identity substrate: a central
// certificate authority that binds a host's network address to a public
// key and a randomly assigned overlay identifier (§2), plus the signing
// primitives the protocol layers use for tomographic snapshots, freshness
// timestamps, forwarding commitments, and accusations.
//
// The paper signs with PSS-R over 1024-bit RSA; this implementation signs
// with Ed25519 (any EUF-CMA scheme gives the protocol the properties it
// needs) and models PSS-R's byte sizes separately in internal/wire for
// the §4.4 bandwidth accounting.
package sigcrypto

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"concilium/internal/id"
)

// Signing errors.
var (
	// ErrBadSignature indicates a signature that does not verify.
	ErrBadSignature = errors.New("sigcrypto: signature verification failed")
	// ErrWrongAuthority indicates a certificate signed by a different CA.
	ErrWrongAuthority = errors.New("sigcrypto: certificate not signed by this authority")
)

// KeyPair is an Ed25519 key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// KeyPairFromSeed derives a key pair deterministically. Experiments use
// this so that simulated populations are reproducible.
func KeyPairFromSeed(seed [ed25519.SeedSize]byte) KeyPair {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return KeyPair{Public: priv.Public().(ed25519.PublicKey), Private: priv}
}

// KeyPairFromRand derives a key pair from a deterministic random source.
func KeyPairFromRand(src id.RandSource) KeyPair {
	var seed [ed25519.SeedSize]byte
	for i := 0; i < len(seed); i += 8 {
		binary.BigEndian.PutUint64(seed[i:], src.Uint64())
	}
	return KeyPairFromSeed(seed)
}

// Sign signs msg with the private key.
func (kp KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(kp.Private, msg)
}

// Verify checks sig over msg under pub. Outcomes are memoized in a
// bounded LRU keyed by (pub, msg-hash, sig), so repeated verification
// of the same certificates, timestamps, and chain links short-circuits
// to a hash lookup; see verifycache.go for the cache contract.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	key := makeVerifyKey(pub, msg, sig)
	if ok, hit := defaultCache.lookup(key); hit {
		return ok
	}
	ok := ed25519.Verify(pub, msg, sig)
	defaultCache.store(key, ok)
	return ok
}

// Certificate binds a host's address, public key, and centrally assigned
// overlay identifier, under the authority's signature. Identifiers are
// static and random, so adversaries cannot position themselves in the
// identifier space (§2).
type Certificate struct {
	Addr      string
	NodeID    id.ID
	PublicKey ed25519.PublicKey
	Signature []byte
}

// payload returns the canonical byte string the authority signs.
func (c *Certificate) payload() []byte {
	buf := make([]byte, 0, 4+len(c.Addr)+id.Bytes+len(c.PublicKey))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Addr)))
	buf = append(buf, c.Addr...)
	buf = append(buf, c.NodeID[:]...)
	buf = append(buf, c.PublicKey...)
	return buf
}

// Authority is the central certificate authority. It assigns random
// identifiers and signs certificates; it is safe for concurrent use.
type Authority struct {
	key KeyPair

	mu     sync.Mutex
	rng    id.RandSource
	issued map[id.ID]struct{}
}

// NewAuthority creates an authority signing with key and drawing
// identifiers from src.
func NewAuthority(key KeyPair, src id.RandSource) *Authority {
	return &Authority{key: key, rng: src, issued: make(map[id.ID]struct{})}
}

// PublicKey returns the authority's verification key.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.key.Public }

// Issue assigns a fresh random identifier to the host at addr with the
// given public key and returns the signed certificate.
func (a *Authority) Issue(addr string, nodePub ed25519.PublicKey) (Certificate, error) {
	if len(nodePub) != ed25519.PublicKeySize {
		return Certificate{}, fmt.Errorf("sigcrypto: bad public key length %d", len(nodePub))
	}
	a.mu.Lock()
	var nodeID id.ID
	for {
		nodeID = id.Random(a.rng)
		if _, dup := a.issued[nodeID]; !dup {
			a.issued[nodeID] = struct{}{}
			break
		}
	}
	a.mu.Unlock()

	cert := Certificate{
		Addr:      addr,
		NodeID:    nodeID,
		PublicKey: append(ed25519.PublicKey(nil), nodePub...),
	}
	cert.Signature = a.key.Sign(cert.payload())
	return cert, nil
}

// IssueFor signs a certificate binding addr, nodeID, and nodePub without
// touching the authority's rng or identifier registry — the parallel
// half of issuance. Callers draw nodeID from their own substream and
// must Claim it (serially, in a deterministic order) so the registry
// still guards against reuse. Ed25519 signing is deterministic and the
// authority key is immutable after construction, so concurrent IssueFor
// calls are safe and scheduling-independent.
func (a *Authority) IssueFor(addr string, nodeID id.ID, nodePub ed25519.PublicKey) (Certificate, error) {
	if len(nodePub) != ed25519.PublicKeySize {
		return Certificate{}, fmt.Errorf("sigcrypto: bad public key length %d", len(nodePub))
	}
	cert := Certificate{
		Addr:      addr,
		NodeID:    nodeID,
		PublicKey: append(ed25519.PublicKey(nil), nodePub...),
	}
	cert.Signature = a.key.Sign(cert.payload())
	return cert, nil
}

// Claim registers an externally drawn identifier with the authority,
// failing on reuse. Later Issue calls will never assign a claimed
// identifier.
func (a *Authority) Claim(nodeID id.ID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.issued[nodeID]; dup {
		return fmt.Errorf("sigcrypto: identifier %s already issued", nodeID.Short())
	}
	a.issued[nodeID] = struct{}{}
	return nil
}

// VerifyCertificate checks that cert was signed by the authority holding
// caPub.
func VerifyCertificate(caPub ed25519.PublicKey, cert *Certificate) error {
	if cert == nil {
		return errors.New("sigcrypto: nil certificate")
	}
	if !Verify(caPub, cert.payload(), cert.Signature) {
		return ErrWrongAuthority
	}
	return nil
}

// Timestamp is a signed liveness attestation: "node NodeID was alive at
// virtual time At". Hosts piggyback these on availability-probe responses;
// jump-table adverts must carry a fresh timestamp per entry to defeat
// inflation attacks that reuse identifiers of departed peers (§3.1).
type Timestamp struct {
	NodeID    id.ID
	At        int64 // virtual time, nanoseconds
	Signature []byte
}

func timestampPayload(nodeID id.ID, at int64) []byte {
	buf := make([]byte, 0, id.Bytes+8+2)
	buf = append(buf, "ts"...)
	buf = append(buf, nodeID[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(at))
	return buf
}

// NewTimestamp signs a liveness attestation for nodeID at virtual time at.
func NewTimestamp(kp KeyPair, nodeID id.ID, at int64) Timestamp {
	return Timestamp{NodeID: nodeID, At: at, Signature: kp.Sign(timestampPayload(nodeID, at))}
}

// VerifyTimestamp checks ts under the claimed node's public key.
func VerifyTimestamp(pub ed25519.PublicKey, ts Timestamp) error {
	if !Verify(pub, timestampPayload(ts.NodeID, ts.At), ts.Signature) {
		return ErrBadSignature
	}
	return nil
}
