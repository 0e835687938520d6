package core

import (
	"crypto/ed25519"
	"math/rand/v2"
	"testing"

	"concilium/internal/id"
	"concilium/internal/parexec"
	"concilium/internal/sigcrypto"
	"concilium/internal/topology"
)

// TestKeysDerivedOnFirstUse pins the key slab's first-use contract: the
// build and both join paths store each node's seed — the four words
// Stream(2p) or the shared rng drew — with a zero public half, and the
// first read through Keys, KeyDir or a signature derives exactly
// KeyPairFromSeed of that seed, departed slabs included. A key view
// taken before a join that moves the slab keeps signing.
func TestKeysDerivedOnFirstUse(t *testing.T) {
	t.Parallel()
	cfg := DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	src := rand.NewPCG(201, 203)
	cs, err := BuildCompactSystem(cfg, rand.New(src))
	if err != nil {
		t.Fatal(err)
	}

	// The build's serial prefix, replayed: topology, host permutation,
	// four discarded draws, then the substream family.
	rng := rand.New(rand.NewPCG(201, 203))
	graph, err := topology.Generate(cfg.Topology, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(graph.EndHosts()) - 1; i > 0; i-- {
		rng.IntN(i + 1)
	}
	for range 4 {
		rng.Uint64()
	}
	buildSeed := parexec.SeedFrom(rng)
	var seeds [][ed25519.SeedSize]byte
	for p := 0; p < cs.Overlay.Slabs(); p++ {
		stream := buildSeed.Stream(2 * uint64(p))
		seeds = append(seeds, sigcrypto.SeedFromRand(stream))
		if got, want := cs.Overlay.ID(cs.Overlay.Pos(uint32(p))), id.Random(stream); got != want {
			t.Fatalf("slab %d: identifier %s, Stream(2p) after its seed draws %s", p, got.Short(), want.Short())
		}
	}

	// join admits one node, recording the seed the shared rng is about
	// to draw for it.
	fresh := rand.New(rand.NewPCG(5, 5))
	join := func(at bool) {
		t.Helper()
		next := *src
		seeds = append(seeds, sigcrypto.SeedFromRand(rand.New(&next)))
		router := cs.Topo.EndHosts()[len(seeds)%len(cs.Topo.EndHosts())]
		var err error
		if at {
			_, err = cs.JoinNodeAt(router, id.Random(fresh))
		} else {
			_, err = cs.JoinNode(router)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	noneDerived := func(when string) {
		t.Helper()
		for p := 0; p < cs.Overlay.Slabs(); p++ {
			row := cs.privKeys[p*ed25519.PrivateKeySize : (p+1)*ed25519.PrivateKeySize]
			if [ed25519.SeedSize]byte(row) != seeds[p] {
				t.Fatalf("%s: slab %d holds seed %x, drawn %x", when, p, row[:ed25519.SeedSize], seeds[p])
			}
			if [ed25519.PublicKeySize]byte(row[ed25519.SeedSize:]) != [ed25519.PublicKeySize]byte{} {
				t.Fatalf("%s: slab %d public half set before any read", when, p)
			}
		}
	}
	noneDerived("build")
	departed := cs.NodeID(3)
	if err := cs.FailNode(departed); err != nil {
		t.Fatal(err)
	}
	join(false)
	join(true)
	noneDerived("joins")

	// A view taken now must survive the slab's reallocation by later joins.
	early, earlySlab, base := cs.Keys(0), cs.Overlay.Slab(0), &cs.privKeys[0]
	for spare := cap(cs.privKeys) - len(cs.privKeys); spare >= 0; spare -= ed25519.PrivateKeySize {
		join(false)
	}
	if &cs.privKeys[0] == base {
		t.Fatal("joins did not reallocate the key slab")
	}

	msg := []byte("first-use derivation")
	keys := cs.KeyDir()
	check := func(p uint32, kp sigcrypto.KeyPair) {
		t.Helper()
		want := sigcrypto.KeyPairFromSeed(seeds[p])
		if !kp.Public.Equal(want.Public) || !kp.Private.Equal(want.Private) {
			t.Fatalf("slab %d: key pair is not KeyPairFromSeed of its drawn seed", p)
		}
		if sig := kp.Sign(msg); !ed25519.Verify(want.Public, msg, sig) {
			t.Fatalf("slab %d: signature does not verify under its seed's key", p)
		}
	}
	check(earlySlab, early)
	for p := uint32(0); p < uint32(cs.Overlay.Slabs()); p++ {
		nid, gone := cs.departedID[p]
		if !gone {
			i := cs.Overlay.Pos(p)
			check(p, cs.Keys(i))
			nid = cs.Overlay.ID(i)
		}
		pub, ok := keys(nid)
		if !ok {
			t.Fatalf("key directory lost slab %d", p)
		}
		check(p, sigcrypto.KeyPair{Public: pub, Private: cs.keysOfSlab(p).Private})
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
