package dht

import (
	"bytes"
	"crypto/ed25519"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/overlay"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

func testRing(t *testing.T, n int, r *rand.Rand) (*overlay.Ring, []id.ID) {
	t.Helper()
	ids := make([]id.ID, n)
	seen := map[id.ID]bool{}
	for i := 0; i < n; {
		x := id.Random(r)
		if !seen[x] {
			seen[x] = true
			ids[i] = x
			i++
		}
	}
	ring, err := overlay.NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	return ring, ids
}

func TestStoreValidation(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(1, 2))
	ring, _ := testRing(t, 10, r)
	if _, err := New(nil, 3); err == nil {
		t.Error("nil ring accepted")
	}
	if _, err := New(ring, 0); err == nil {
		t.Error("0 replicas accepted")
	}
	// Replicas capped at ring size.
	s, err := New(ring, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.ReplicaSet(id.Zero)); got != 10 {
		t.Errorf("replica set = %d, want 10", got)
	}
}

func TestStorePutGet(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(3, 4))
	ring, ids := testRing(t, 20, r)
	s, err := New(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := ids[7]
	if err := s.Put(key, []byte("accusation-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("accusation-2")); err != nil {
		t.Fatal(err)
	}
	// Duplicate put is idempotent.
	if err := s.Put(key, []byte("accusation-1")); err != nil {
		t.Fatal(err)
	}
	got := mustGet(t, s, key)
	if len(got) != 2 {
		t.Fatalf("Get returned %d values, want 2", len(got))
	}
	if mustGet(t, s, id.Zero) != nil {
		t.Error("empty key returned values")
	}
	if err := s.Put(key, nil); err == nil {
		t.Error("empty value accepted")
	}
}

func TestStoreReplicaSetIsClosest(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(5, 6))
	ring, _ := testRing(t, 50, r)
	key := id.Random(r)
	set := s3(t, ring).ReplicaSet(key)
	// Every non-replica must be at least as far as the farthest replica.
	farthest := set[len(set)-1]
	inSet := map[id.ID]bool{}
	for _, m := range set {
		inSet[m] = true
	}
	for _, m := range ring.Members() {
		if inSet[m] {
			continue
		}
		if id.Closer(m, farthest, key) {
			t.Fatalf("non-replica %s closer to key than replica %s", m.Short(), farthest.Short())
		}
	}
}

// TestStoreReplicaSetMatchesSort pins the outward walk against the
// definition it replaced — sort the whole ring by id.Closer, take the
// first `replicas` — in order, not just as a set: on two random rings and
// on an evenly spaced one where every midpoint key is an exact distance
// tie, with a replica count above the ring size included.
func TestStoreReplicaSetMatchesSort(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(0x7265706c, 0x69636173))
	spaced := make([]id.ID, 7)
	for i := range spaced {
		spaced[i][id.Bytes-1] = byte(0x20 * (i + 1))
	}
	spacedRing, err := overlay.NewRing(spaced)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := testRing(t, 50, r)
	large, _ := testRing(t, 200, r)
	for _, tc := range []struct {
		ring     *overlay.Ring
		replicas int
	}{{small, 3}, {large, DefaultReplicas}, {spacedRing, 10}} {
		store, err := New(tc.ring, tc.replicas)
		if err != nil {
			t.Fatal(err)
		}
		members := tc.ring.Members()
		keys := append([]id.ID{id.Zero}, members...)
		for b := 0; b < 256; b++ {
			var low, high id.ID
			low[id.Bytes-1] = byte(b)
			for i := range high {
				high[i] = 0xff
			}
			high[id.Bytes-1] = byte(b)
			keys = append(keys, low, high)
		}
		for len(keys) < 1000+len(members)+513 {
			keys = append(keys, id.Random(r))
		}
		for _, key := range keys {
			want := append([]id.ID(nil), members...)
			sort.Slice(want, func(i, j int) bool { return id.Closer(want[i], want[j], key) })
			want = want[:min(tc.replicas, len(want))]
			got := store.ReplicaSet(key)
			if !slices.Equal(got, want) {
				t.Fatalf("ring of %d, %d replicas, key %s:\n got %v\nwant %v", len(members), tc.replicas, key, got, want)
			}
		}
	}
}

func s3(t *testing.T, ring *overlay.Ring) *Store {
	t.Helper()
	s, err := New(ring, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreSurvivesFaultyReplicas(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(7, 8))
	ring, _ := testRing(t, 30, r)
	s, err := New(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := id.Random(r)
	set := s.ReplicaSet(key)
	// Two of four replicas are faulty.
	if err := s.SetFaulty(set[0], true); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaulty(set[2], true); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, s, key); len(got) != 1 || string(got[0]) != "survives" {
		t.Fatalf("Get through faulty replicas = %v", got)
	}
	// All replicas faulty: Put fails loudly.
	for _, m := range set {
		if err := s.SetFaulty(m, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(key, []byte("doomed")); err == nil {
		t.Error("put with all-faulty replica set succeeded")
	}
	if err := s.SetFaulty(id.Zero, true); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestStoreDegradedReads(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(31, 32))
	ring, _ := testRing(t, 30, r)
	s, err := New(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Store several accusations under one key with all replicas healthy.
	key := id.Random(r)
	values := [][]byte{[]byte("acc-a"), []byte("acc-b"), []byte("acc-c")}
	for _, v := range values {
		h, err := s.PutChecked(key, v)
		if err != nil {
			t.Fatal(err)
		}
		if h.Live != 4 || h.Total != 4 || h.Degraded() {
			t.Fatalf("healthy put health = %+v", h)
		}
	}
	// Fail replicas one at a time: with up to replicas-1 faulty, every
	// stored value must still come back, with health reporting the dip.
	set := s.ReplicaSet(key)
	for down := 1; down < len(set); down++ {
		if err := s.SetFaulty(set[down-1], true); err != nil {
			t.Fatal(err)
		}
		got, h, err := s.GetChecked(key)
		if err != nil {
			t.Fatalf("%d faulty: %v", down, err)
		}
		if len(got) != len(values) {
			t.Fatalf("%d faulty: %d values returned, want %d", down, len(got), len(values))
		}
		if h.Live != 4-down || !h.Degraded() {
			t.Fatalf("%d faulty: health = %+v", down, h)
		}
		if wantQ := 2*(4-down) > 4; h.Quorum() != wantQ {
			t.Fatalf("%d faulty: quorum = %v, want %v", down, h.Quorum(), wantQ)
		}
	}
	// All replicas faulty: the outage must be detected and reported,
	// not returned as a silently empty result.
	if err := s.SetFaulty(set[len(set)-1], true); err != nil {
		t.Fatal(err)
	}
	got, h, err := s.GetChecked(key)
	if err == nil {
		t.Fatalf("total outage returned values=%v health=%+v with nil error", got, h)
	}
	if h.Live != 0 {
		t.Errorf("total outage health = %+v", h)
	}
	// An empty key on a healthy replica set stays distinguishable: nil
	// values with nil error.
	empty := id.Random(r)
	if vals, h2, err := s.GetChecked(empty); err != nil || vals != nil || h2.Live == 0 {
		t.Errorf("empty key: vals=%v health=%+v err=%v", vals, h2, err)
	}
}

func TestKeyHealthTracksOutages(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(33, 34))
	ring, _ := testRing(t, 20, r)
	s, err := New(ring, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := id.Random(r)
	if h := s.KeyHealth(key); h.Live != 3 || !h.Quorum() {
		t.Fatalf("healthy key health = %+v", h)
	}
	set := s.ReplicaSet(key)
	if err := s.SetFaulty(set[0], true); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaulty(set[1], true); err != nil {
		t.Fatal(err)
	}
	if h := s.KeyHealth(key); h.Live != 1 || h.Quorum() {
		t.Fatalf("degraded key health = %+v", h)
	}
}

// buildVerifiedChain creates a minimal valid single-link chain.
func buildVerifiedChain(t *testing.T, r *rand.Rand) (*core.RevisionChain, core.KeyDirectory) {
	t.Helper()
	type identity struct {
		id   id.ID
		keys sigcrypto.KeyPair
	}
	mk := func() identity {
		return identity{id: id.Random(r), keys: sigcrypto.KeyPairFromSeed(sigcrypto.SeedFromRand(r))}
	}
	accuser, accused, dest := mk(), mk(), mk()
	dir := map[id.ID]ed25519.PublicKey{
		accuser.id: accuser.keys.Public,
		accused.id: accused.keys.Public,
		dest.id:    dest.keys.Public,
	}
	keys := func(x id.ID) (ed25519.PublicKey, bool) { k, ok := dir[x]; return k, ok }

	eng, err := core.NewBlameEngine(tomography.NewArchive(0), noProbers{}, core.DefaultBlameConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Blame(accused.id, []topology.LinkID{1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	commit := core.NewCommitment(accused.keys, accuser.id, accused.id, dest.id, 5, 90)
	acc, err := core.NewAccusation(accuser.keys, accuser.id, res, 5, []topology.LinkID{1}, commit)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := core.NewRevisionChain([]core.Accusation{acc})
	if err != nil {
		t.Fatal(err)
	}
	return chain, keys
}

func TestAccusationRepoRoundTrip(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(9, 10))
	chain, keys := buildVerifiedChain(t, r)
	// Ring must include the culprit region; any members work since
	// replica selection is by closeness, not membership of the culprit.
	ring, _ := testRing(t, 20, r)
	store, err := New(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := NewAccusationRepo(store, keys, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Publish(chain); err != nil {
		t.Fatal(err)
	}
	got, err := repo.Fetch(chain.Culprit())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("fetched %d chains, want 1", len(got))
	}
	if got[0].Culprit() != chain.Culprit() {
		t.Error("culprit changed in transit")
	}
	if err := got[0].Verify(keys, 0.4); err != nil {
		t.Errorf("fetched chain does not verify: %v", err)
	}
	n, err := repo.Count(chain.Culprit())
	if err != nil || n != 1 {
		t.Errorf("Count = %d, %v", n, err)
	}
}

func TestAccusationRepoDegradedFetch(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(35, 36))
	chain, keys := buildVerifiedChain(t, r)
	ring, _ := testRing(t, 25, r)
	store, err := New(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := NewAccusationRepo(store, keys, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Publish(chain); err != nil {
		t.Fatal(err)
	}
	// Up to replicas-1 faulty members: the accusation must survive.
	set := store.ReplicaSet(chain.Culprit())
	for down := 1; down < len(set); down++ {
		if err := store.SetFaulty(set[down-1], true); err != nil {
			t.Fatal(err)
		}
		got, h, err := repo.FetchChecked(chain.Culprit())
		if err != nil {
			t.Fatalf("%d faulty: %v", down, err)
		}
		if len(got) != 1 || got[0].Culprit() != chain.Culprit() {
			t.Fatalf("%d faulty: accusation lost (%d chains)", down, len(got))
		}
		if !h.Degraded() {
			t.Fatalf("%d faulty: health not degraded: %+v", down, h)
		}
	}
	// Full outage: reported, not silently empty.
	if err := store.SetFaulty(set[len(set)-1], true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := repo.FetchChecked(chain.Culprit()); err == nil {
		t.Error("total outage fetch returned nil error")
	}
	if _, err := repo.Fetch(chain.Culprit()); err == nil {
		t.Error("total outage Fetch returned nil error")
	}
}

func TestAccusationRepoRejectsBadChains(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(11, 12))
	chain, keys := buildVerifiedChain(t, r)
	ring, _ := testRing(t, 20, r)
	store, err := New(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := NewAccusationRepo(store, keys, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the chain: publishing must refuse.
	bad := *chain
	bad.Links = append([]core.Accusation(nil), chain.Links...)
	bad.Links[0].Blame = 0.99
	if err := repo.Publish(&bad); err == nil {
		t.Error("unverifiable chain published")
	}
	if err := repo.Publish(nil); err == nil {
		t.Error("nil chain published")
	}

	// Garbage injected directly at replicas is filtered on fetch.
	if err := store.Put(chain.Culprit(), []byte("not-a-chain")); err != nil {
		t.Fatal(err)
	}
	got, err := repo.Fetch(chain.Culprit())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("garbage survived verification: %d chains", len(got))
	}
}

// TestAccusationRepoRejectsEmptyChain: a chain with no links names no
// culprit, so publishing one is an error, never a panic.
func TestAccusationRepoRejectsEmptyChain(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(15, 16))
	_, keys := buildVerifiedChain(t, r)
	ring, _ := testRing(t, 20, r)
	store, err := New(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := NewAccusationRepo(store, keys, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Publish(&core.RevisionChain{}); err == nil {
		t.Error("empty chain published")
	}
	if err := repo.PublishAt(&core.RevisionChain{Links: []core.Accusation{}}, 0); err == nil {
		t.Error("empty chain published with a clock")
	}
}

func TestNewAccusationRepoValidation(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(13, 14))
	ring, _ := testRing(t, 5, r)
	store, err := New(ring, 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := func(id.ID) (ed25519.PublicKey, bool) { return nil, false }
	if _, err := NewAccusationRepo(nil, keys, 0.4); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewAccusationRepo(store, nil, 0.4); err == nil {
		t.Error("nil keys accepted")
	}
	if _, err := NewAccusationRepo(store, keys, 0); err == nil {
		t.Error("zero threshold accepted")
	}
}

func TestStoreLoadBalance(t *testing.T) {
	t.Parallel()
	// Random keys should spread across replicas rather than piling on
	// one member.
	r := rand.New(rand.NewPCG(15, 16))
	ring, _ := testRing(t, 40, r)
	s, err := New(ring, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.Put(id.Random(r), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	max := 0
	for _, m := range ring.Members() {
		if l := s.Load(m); l > max {
			max = l
		}
	}
	// 200 keys x 3 replicas over 40 nodes = 15 average; a hot spot of 3x
	// average means the closeness mapping is broken.
	if max > 45 {
		t.Errorf("hottest replica holds %d keys (avg 15)", max)
	}
}

func TestRebalanceSurvivesChurn(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(17, 18))
	ring, ids := testRing(t, 30, r)
	s, err := New(ring, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Store values under many keys.
	keys := make([]id.ID, 20)
	for i := range keys {
		keys[i] = id.Random(r)
		if err := s.Put(keys[i], []byte{byte(i), 0xaa}); err != nil {
			t.Fatal(err)
		}
	}
	// Depart three members (fewer than the replica count) and add five
	// new ones.
	excluded := map[id.ID]bool{ids[0]: true, ids[1]: true, ids[2]: true}
	var members []id.ID
	for _, x := range ring.Members() {
		if !excluded[x] {
			members = append(members, x)
		}
	}
	for i := 0; i < 5; i++ {
		members = append(members, id.Random(r))
	}
	grown, err := overlay.NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Rebalance(grown); err != nil {
		t.Fatal(err)
	}
	// Every value survives: at most 3 of 4 replicas departed.
	for i, key := range keys {
		got := mustGet(t, s, key)
		if len(got) != 1 || got[0][0] != byte(i) {
			t.Fatalf("key %d lost after rebalance: %v", i, got)
		}
	}
	// Replica sets now live on the new ring: departed members hold no load.
	for dead := range excluded {
		if s.Load(dead) != 0 {
			t.Errorf("departed member still loaded")
		}
	}
	if err := s.Rebalance(nil); err == nil {
		t.Error("nil ring accepted")
	}
}

func TestRebalancePreservesFaultMarks(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewPCG(19, 20))
	ring, ids := testRing(t, 10, r)
	s, err := New(ring, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaulty(ids[3], true); err != nil {
		t.Fatal(err)
	}
	key := id.Random(r)
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebalance(ring); err != nil {
		t.Fatal(err)
	}
	// The fault mark survived the rebalance: writes still skip the node.
	set := s.ReplicaSet(ids[3])
	_ = set
	if !s.faulty[ids[3]] {
		t.Error("fault mark lost in rebalance")
	}
	if got := mustGet(t, s, key); len(got) != 1 {
		t.Errorf("value lost in same-ring rebalance: %v", got)
	}
}

// Property: any value Put under a key is returned by Get, for random
// key/value workloads with no faulty replicas.
func TestPropPutGetComplete(t *testing.T) {
	t.Parallel()
	f := func(seed uint16, nVals uint8) bool {
		r := rand.New(rand.NewPCG(uint64(seed), 5))
		ring, _ := testRingQuick(30, r)
		s, err := New(ring, 4)
		if err != nil {
			return false
		}
		type kv struct {
			key   id.ID
			value byte
		}
		var stored []kv
		for i := 0; i < int(nVals%40)+1; i++ {
			key := id.Random(r)
			val := byte(r.IntN(256))
			if err := s.Put(key, []byte{val, byte(i)}); err != nil {
				return false
			}
			stored = append(stored, kv{key: key, value: val})
		}
		for i, item := range stored {
			found := false
			vals, _, err := s.GetChecked(item.key)
			if err != nil {
				return false
			}
			for _, got := range vals {
				if len(got) == 2 && got[0] == item.value && got[1] == byte(i) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func testRingQuick(n int, r *rand.Rand) (*overlay.Ring, []id.ID) {
	ids := make([]id.ID, n)
	seen := map[id.ID]bool{}
	for i := 0; i < n; {
		x := id.Random(r)
		if !seen[x] {
			seen[x] = true
			ids[i] = x
			i++
		}
	}
	ring, err := overlay.NewRing(ids)
	if err != nil {
		panic(err)
	}
	return ring, ids
}

// TestJoinerServesBeforeRebalance: the store shares the overlay's live
// ring, so a node that joins after New sits in replica sets at once.
// Writes and reads keyed at it must land on it, before any Rebalance.
func TestJoinerServesBeforeRebalance(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	sys, err := core.BuildCompactSystem(cfg, rand.New(rand.NewPCG(61, 62)))
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(sys.Overlay.Ring(), DefaultReplicas)
	if err != nil {
		t.Fatal(err)
	}
	used := map[topology.RouterID]bool{}
	for i := 0; i < sys.Size(); i++ {
		used[sys.Router(uint32(i))] = true
	}
	var joiner id.ID
	for _, h := range sys.Topo.EndHosts() {
		if !used[h] {
			if joiner, err = sys.JoinNode(h); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if joiner == id.Zero {
		t.Skip("no free end host")
	}

	if err := store.Put(joiner, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, store, joiner); len(got) != 1 || string(got[0]) != "v" {
		t.Fatalf("Get at joiner = %q", got)
	}
	if store.Load(joiner) != 1 {
		t.Errorf("joiner holds %d keys, want its own", store.Load(joiner))
	}

	r := rand.New(rand.NewPCG(63, 64))
	f, ids := newRepoFixture(t, r, 1)
	kp := sigcrypto.KeyPairFromSeed(sigcrypto.SeedFromRand(r))
	f.dir[joiner], f.kp[joiner] = kp.Public, kp
	repo, err := NewAccusationRepo(store, f.keys(), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Publish(f.chain([]id.ID{ids[0], joiner}, 1, 100)); err != nil {
		t.Fatal(err)
	}
	if chains, err := repo.Fetch(joiner); err != nil || len(chains) != 1 {
		t.Fatalf("Fetch at joiner = %d chains, %v", len(chains), err)
	}

	if err := store.SetFaulty(joiner, true); err != nil {
		t.Fatalf("SetFaulty on a joined member: %v", err)
	}
	if h := store.KeyHealth(joiner); h.Live != h.Total-1 {
		t.Errorf("joiner's own key health = %+v, want one faulty replica", h)
	}
}

// TestRebalanceOrderIsFixed: replicas that hold one key's values in
// different orders (one missed a write while faulty) must rebalance to
// one order, not to whichever replica a map range visits first.
func TestRebalanceOrderIsFixed(t *testing.T) {
	t.Parallel()
	var want [][]byte
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewPCG(71, 72))
		ring, _ := testRing(t, 10, r)
		s, err := New(ring, 3)
		if err != nil {
			t.Fatal(err)
		}
		key := id.Random(r)
		missed := s.ReplicaSet(key)[1]
		if err := s.SetFaulty(missed, true); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(key, []byte("A")); err != nil {
			t.Fatal(err)
		}
		if err := s.SetFaulty(missed, false); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(key, []byte("B")); err != nil {
			t.Fatal(err)
		}
		if err := s.Rebalance(ring); err != nil {
			t.Fatal(err)
		}
		got := mustGet(t, s, key)
		if len(got) != 2 {
			t.Fatalf("trial %d: Get = %q, want both values", trial, got)
		}
		if trial == 0 {
			want = got
		} else if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("trial %d: Get = %q, trial 0 returned %q", trial, got, want)
		}
	}
}

// mustGet reads every value under key, failing the test on a total
// replica outage.
func mustGet(t *testing.T, s *Store, key id.ID) [][]byte {
	t.Helper()
	vals, _, err := s.GetChecked(key)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}
