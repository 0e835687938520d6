// Package sigcrypto implements Concilium's identity substrate: a central
// authority that assigns random, never-reused overlay identifiers (§2),
// plus the signing primitives the protocol layers use for tomographic
// snapshots, forwarding commitments, and accusations. Every identity in
// the simulation is minted by the authority itself, so nothing ever
// presents a certificate to check and the authority signs none
// (DESIGN.md §2, "not modelled").
//
// The paper signs with PSS-R over 1024-bit RSA; this implementation signs
// with Ed25519 (any EUF-CMA scheme gives the protocol the properties it
// needs) and models PSS-R's byte sizes separately in internal/wire for
// the §4.4 bandwidth accounting.
package sigcrypto

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"sync"

	"concilium/internal/id"
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

// SeedFromRand draws a key seed from a deterministic random source:
// four words, big-endian. KeyPairFromSeed turns it into the key pair.
func SeedFromRand(src id.RandSource) [ed25519.SeedSize]byte {
	var seed [ed25519.SeedSize]byte
	for i := 0; i < len(seed); i += 8 {
		binary.BigEndian.PutUint64(seed[i:], src.Uint64())
	}
	return seed
}

// Sign signs msg with the private key.
func (kp KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(kp.Private, msg)
}

// Verify checks sig over msg under pub. Outcomes are memoized in a
// bounded LRU keyed by (pub, msg-hash, sig), so repeated verification
// of the same timestamps, snapshots, and chain links short-circuits
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

// Authority is the central authority of §2: it assigns random overlay
// identifiers and never reuses one, so adversaries cannot position
// themselves in the identifier space. It is safe for concurrent use.
type Authority struct {
	mu     sync.Mutex
	rng    id.RandSource
	issued map[id.ID]struct{}
}

// NewAuthority creates an authority drawing identifiers from src.
func NewAuthority(src id.RandSource) *Authority {
	return &Authority{rng: src, issued: make(map[id.ID]struct{})}
}

// Issue assigns a fresh random identifier, redrawing on the (vanishingly
// rare) collision with one already issued or claimed.
func (a *Authority) Issue() id.ID {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		nodeID := id.Random(a.rng)
		if _, dup := a.issued[nodeID]; !dup {
			a.issued[nodeID] = struct{}{}
			return nodeID
		}
	}
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
