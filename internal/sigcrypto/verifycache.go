package sigcrypto

import (
	"container/list"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// The protocol re-verifies the same bytes constantly: accusation chains
// are re-verified by every third party they are presented to, on
// publish and on every fetch. An Ed25519 verification
// costs tens of microseconds, while recognizing an already-verified
// (pub, msg, sig) triple costs one SHA-256 — so Verify consults a
// bounded LRU of past outcomes first.
//
// Correctness: Ed25519 verification is deterministic, so an outcome
// keyed by the hash of (pub, msg-hash, sig) never goes stale — both
// successes and failures are cacheable. The only invalidation is LRU
// eviction for capacity.

// verifyCacheSize is the capacity (entries) of the process-wide
// verification cache. An entry is ~64 bytes.
const verifyCacheSize = 8192

// verifyKey fingerprints one verification: SHA-256 over the public key,
// the message digest, and the signature, each length-prefixed so field
// boundaries are unambiguous.
type verifyKey [sha256.Size]byte

func makeVerifyKey(pub ed25519.PublicKey, msg, sig []byte) verifyKey {
	msgHash := sha256.Sum256(msg)
	h := sha256.New()
	var lenBuf [4]byte
	for _, field := range [][]byte{pub, msgHash[:], sig} {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(field)))
		h.Write(lenBuf[:])
		h.Write(field)
	}
	var k verifyKey
	h.Sum(k[:0])
	return k
}

// verifyCache is a mutex-guarded LRU of verification outcomes.
type verifyCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	entries  map[verifyKey]*list.Element
	hits     uint64
	misses   uint64
}

type verifyEntry struct {
	key verifyKey
	ok  bool
}

func newVerifyCache(capacity int) *verifyCache {
	return &verifyCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[verifyKey]*list.Element),
	}
}

// lookup returns (outcome, true) on a hit and promotes the entry.
func (c *verifyCache) lookup(k verifyKey) (ok, hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[k]
	if !found {
		c.misses++
		return false, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*verifyEntry).ok, true
}

// store records an outcome, evicting the least recently used entry at
// capacity.
func (c *verifyCache) store(k verifyKey, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.entries[k]; found {
		c.order.MoveToFront(el)
		el.Value.(*verifyEntry).ok = ok
		return
	}
	for c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*verifyEntry).key)
	}
	c.entries[k] = c.order.PushFront(&verifyEntry{key: k, ok: ok})
}

func (c *verifyCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}

// defaultCache is the process-wide verification cache every Verify
// consults.
var defaultCache = newVerifyCache(verifyCacheSize)

// ResetVerifyCache drops all cached outcomes and statistics.
func ResetVerifyCache() {
	c := defaultCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[verifyKey]*list.Element)
	c.hits, c.misses = 0, 0
}

// VerifyCacheStats reports cumulative cache hits and misses plus the
// current entry count.
func VerifyCacheStats() (hits, misses uint64, size int) {
	return defaultCache.stats()
}
