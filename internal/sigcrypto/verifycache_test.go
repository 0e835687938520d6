package sigcrypto

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"concilium/internal/id"
)

func seedPair(b byte) KeyPair {
	var seed [32]byte
	seed[0] = b
	return KeyPairFromSeed(seed)
}

func resetCache(t *testing.T) {
	t.Helper()
	ResetVerifyCache()
	t.Cleanup(ResetVerifyCache)
}

// useSmallCache installs an empty cache of the given capacity for the
// rest of the test, restoring the process-wide one afterwards.
func useSmallCache(t *testing.T, capacity int) {
	t.Helper()
	saved := defaultCache
	defaultCache = newVerifyCache(capacity)
	t.Cleanup(func() { defaultCache = saved })
}

func TestVerifyCacheHit(t *testing.T) {
	resetCache(t)
	kp := seedPair(1)
	msg := []byte("the steward attests")
	sig := kp.Sign(msg)

	if !Verify(kp.Public, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	hits, misses, size := VerifyCacheStats()
	if hits != 0 || misses != 1 || size != 1 {
		t.Fatalf("after first verify: hits=%d misses=%d size=%d, want 0/1/1", hits, misses, size)
	}
	for i := 0; i < 5; i++ {
		if !Verify(kp.Public, msg, sig) {
			t.Fatal("cached valid signature rejected")
		}
	}
	hits, misses, size = VerifyCacheStats()
	if hits != 5 || misses != 1 || size != 1 {
		t.Fatalf("after cached verifies: hits=%d misses=%d size=%d, want 5/1/1", hits, misses, size)
	}
}

func TestVerifyCacheNegativeOutcome(t *testing.T) {
	resetCache(t)
	kp := seedPair(2)
	msg := []byte("forged")
	sig := kp.Sign(msg)
	sig[0] ^= 0xff

	for i := 0; i < 3; i++ {
		if Verify(kp.Public, msg, sig) {
			t.Fatal("corrupted signature accepted")
		}
	}
	hits, misses, _ := VerifyCacheStats()
	if misses != 1 || hits != 2 {
		t.Fatalf("negative outcome not cached: hits=%d misses=%d", hits, misses)
	}
}

func TestVerifyCacheKeySeparation(t *testing.T) {
	resetCache(t)
	kpA, kpB := seedPair(3), seedPair(4)
	msg := []byte("shared message")
	sigA := kpA.Sign(msg)

	if !Verify(kpA.Public, msg, sigA) {
		t.Fatal("valid signature rejected")
	}
	// Same msg and sig under the wrong key must not hit A's entry.
	if Verify(kpB.Public, msg, sigA) {
		t.Fatal("signature accepted under the wrong public key")
	}
	// Different message under the right key must not hit either.
	if Verify(kpA.Public, []byte("other message"), sigA) {
		t.Fatal("signature accepted for the wrong message")
	}
	_, misses, size := VerifyCacheStats()
	if misses != 3 || size != 3 {
		t.Fatalf("distinct (pub,msg,sig) tuples shared entries: misses=%d size=%d", misses, size)
	}
}

func TestVerifyCacheEviction(t *testing.T) {
	useSmallCache(t, 4)
	kp := seedPair(5)

	msgs := make([][]byte, 6)
	sigs := make([][]byte, 6)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("message %d", i))
		sigs[i] = kp.Sign(msgs[i])
		Verify(kp.Public, msgs[i], sigs[i])
	}
	if _, _, size := VerifyCacheStats(); size != 4 {
		t.Fatalf("cache size %d exceeds capacity 4", size)
	}
	// Messages 0 and 1 were least recently used and should have been
	// evicted: verifying them again counts as misses.
	_, missesBefore, _ := VerifyCacheStats()
	Verify(kp.Public, msgs[0], sigs[0])
	Verify(kp.Public, msgs[1], sigs[1])
	if _, missesAfter, _ := VerifyCacheStats(); missesAfter != missesBefore+2 {
		t.Fatalf("LRU entries were not evicted: misses %d -> %d", missesBefore, missesAfter)
	}
	// Message 5 is most recent and must still hit.
	hitsBefore, _, _ := VerifyCacheStats()
	Verify(kp.Public, msgs[5], sigs[5])
	if hitsAfter, _, _ := VerifyCacheStats(); hitsAfter != hitsBefore+1 {
		t.Fatal("most-recent entry was evicted")
	}
}

func TestVerifyCacheLRUPromotion(t *testing.T) {
	useSmallCache(t, 2)
	kp := seedPair(6)
	m0, m1, m2 := []byte("m0"), []byte("m1"), []byte("m2")
	s0, s1, s2 := kp.Sign(m0), kp.Sign(m1), kp.Sign(m2)

	Verify(kp.Public, m0, s0) // cache: m0
	Verify(kp.Public, m1, s1) // cache: m1 m0
	Verify(kp.Public, m0, s0) // hit promotes m0: m0 m1
	Verify(kp.Public, m2, s2) // evicts m1: m2 m0

	hitsBefore, missesBefore, _ := VerifyCacheStats()
	Verify(kp.Public, m0, s0) // must still hit
	Verify(kp.Public, m1, s1) // must miss
	hitsAfter, missesAfter, _ := VerifyCacheStats()
	if hitsAfter != hitsBefore+1 || missesAfter != missesBefore+1 {
		t.Fatalf("promotion broken: hits %d->%d misses %d->%d",
			hitsBefore, hitsAfter, missesBefore, missesAfter)
	}
}

// TestVerifyCacheConcurrent hammers Verify and Authority.Issue from many
// goroutines; under -race this exercises the cache locking and the
// authority's identifier mutex. Each goroutine signs and verifies every
// identifier it is issued, so fresh (pub, msg, sig) triples race the
// shared ones into the cache.
func TestVerifyCacheConcurrent(t *testing.T) {
	resetCache(t)
	kp := seedPair(8)
	auth := NewAuthority(counterSource{n: new(atomic.Uint64)})

	const goroutines = 8
	msgs := make([][]byte, 4)
	sigs := make([][]byte, 4)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("concurrent %d", i))
		sigs[i] = kp.Sign(msgs[i])
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		issued = make(map[id.ID]struct{})
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := seedPair(byte(100 + g))
			for i := 0; i < 50; i++ {
				if !Verify(kp.Public, msgs[i%len(msgs)], sigs[i%len(msgs)]) {
					t.Error("valid signature rejected under concurrency")
					return
				}
				nodeID := auth.Issue()
				mu.Lock()
				_, dup := issued[nodeID]
				issued[nodeID] = struct{}{}
				mu.Unlock()
				if dup {
					t.Errorf("identifier %s issued twice", nodeID.Short())
					return
				}
				if !Verify(node.Public, nodeID[:], node.Sign(nodeID[:])) {
					t.Error("fresh signature over an issued identifier rejected")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// counterSource is a concurrency-safe deterministic id.RandSource.
type counterSource struct{ n *atomic.Uint64 }

func (c counterSource) Uint64() uint64 {
	return c.n.Add(0x9e3779b97f4a7c15)
}
