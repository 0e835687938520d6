package core

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/overlay"
	"concilium/internal/topology"
)

func buildTestCompactSystem(t *testing.T, mutate func(*SystemConfig)) *CompactSystem {
	t.Helper()
	cfg := DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	if mutate != nil {
		mutate(&cfg)
	}
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(201, 203)))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestCompactSystemMatchesLegacyBuild holds the build to the identity
// stream the pointer-per-node build produced at the same config and
// seed — identifiers, routers, keys, certificates, behavior marks, every
// routing slot, the routing-peer order, and (via on-demand TreeOf) the
// tomography trees — pinned as identityGolden. The compact canonical
// stream is a different, index-based format; this digest is what
// carries the determinism lineage across the two.
func TestCompactSystemMatchesLegacyBuild(t *testing.T) {
	t.Parallel()
	cs := buildTestCompactSystem(t, func(c *SystemConfig) { c.MaliciousFraction = 0.25 })
	requireGolden(t, "identity", identityDigest(t, cs), identityGolden)
}

// identityGolden pins the identity stream of the TestConfig build at
// seed (201,203) with a quarter of the nodes malicious: for every node
// in build order, its identifier, slab, router, certificate, key pair,
// behavior marks, leaf set, both jump tables slot by slot, routing-peer
// order, and tomography tree with every leaf path. The constant is the
// stream the pointer-per-node build produced; the compact build must
// reproduce it.
const identityGolden = uint64(0x1dcbf7050e978306)

// identityDigest folds the build's identity stream, alive slabs
// ascending (build order).
func identityDigest(t *testing.T, cs *CompactSystem) uint64 {
	t.Helper()
	d := newDigest()
	var scratch topology.BFSScratch
	for p := 0; p < cs.Overlay.Slabs(); p++ {
		i := cs.Overlay.Pos(uint32(p))
		if i == overlay.NoIndex {
			continue
		}
		cert, keys := cs.Cert(i), cs.Keys(i)
		b := cs.Behavior(i)
		d.id(cs.NodeID(i))
		d.u64(uint64(p))
		d.u64(uint64(cs.Router(i)))
		d.str(cert.Addr)
		d.id(cert.NodeID)
		d.bytes(cert.PublicKey)
		d.bytes(cert.Signature)
		d.bytes(keys.Public)
		d.bytes(keys.Private)
		d.flag(b.DropsMessages)
		d.flag(b.InvertsProbes)
		leaves := cs.Overlay.AppendLeafIndices(i, nil)
		d.u64(uint64(len(leaves)))
		for _, j := range leaves {
			d.id(cs.NodeID(j))
		}
		for _, slot := range []func(uint32, int, byte) (uint32, bool){cs.Overlay.SecureSlot, cs.Overlay.StandardSlot} {
			for row := 0; row < id.Digits; row++ {
				for col := byte(0); col < id.Base; col++ {
					j, ok := slot(i, row, col)
					d.flag(ok)
					if ok {
						d.id(cs.NodeID(j))
					}
				}
			}
		}
		peers := cs.Overlay.AppendRoutingPeers(i, nil)
		d.u64(uint64(len(peers)))
		for _, j := range peers {
			d.id(cs.NodeID(j))
		}
		tree, err := cs.TreeOf(i, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		d.tree(tree)
	}
	return d.sum()
}

// TestBuildCompactSystemWorkerInvariant pins the parexec contract for
// the compact build: the canonical snapshot is byte-identical no matter
// how many workers constructed it.
func TestBuildCompactSystemWorkerInvariant(t *testing.T) {
	t.Parallel()
	var want uint64
	for _, workers := range []int{1, 2, 3} {
		cs := buildTestCompactSystem(t, func(c *SystemConfig) { c.Workers = workers })
		got := cs.CanonicalHash()
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d: canonical hash %#x, workers=1 gave %#x", workers, got, want)
		}
	}
}

// TestCompactCanonicalGolden pins the compact canonical hash at a fixed
// config and seed. The stream is index-based with trees excluded; any
// change to the build's decisions or the serialization layout must
// update it deliberately.
func TestCompactCanonicalGolden(t *testing.T) {
	t.Parallel()
	cs := buildTestCompactSystem(t, nil)
	const want = uint64(0xc85872ef5cc0b6eb)
	if got := cs.CanonicalHash(); got != want {
		t.Fatalf("compact canonical hash %#x, pinned %#x", got, want)
	}
}

// TestCompactSystemChurnDeterministic runs the same build plus the same
// fail/join schedule on two same-seeded systems and requires identical
// canonical snapshots throughout.
func TestCompactSystemChurnDeterministic(t *testing.T) {
	t.Parallel()
	run := func() *CompactSystem {
		cs := buildTestCompactSystem(t, nil)
		hosts := cs.Topo.EndHosts()
		for step := 0; step < 8; step++ {
			if step%3 == 2 {
				if _, err := cs.JoinNode(hosts[(step*37)%len(hosts)]); err != nil {
					t.Fatal(err)
				}
			} else {
				victim := cs.NodeID(uint32((step * 13) % cs.Size()))
				if err := cs.FailNode(victim); err != nil {
					t.Fatal(err)
				}
			}
			if err := cs.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		return cs
	}
	a, b := run(), run()
	ha, hb := a.CanonicalHash(), b.CanonicalHash()
	if ha != hb {
		t.Fatalf("same seed, same churn: hashes %#x vs %#x", ha, hb)
	}
	// The post-churn state the former pointer-per-node overlay verified
	// slot for slot; it pins which member each standard refill drew.
	const postChurnGolden = uint64(0x13418b959962d164)
	if ha != postChurnGolden {
		t.Fatalf("post-churn canonical hash %#x, pinned %#x", ha, postChurnGolden)
	}
	if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Fatal("same seed, same churn: canonical snapshots differ")
	}
}

// TestCompactChurnSecureInvariant checks the repair quality bound the
// paper's constrained table gives for free: the secure fill is rng-free,
// so after arbitrary churn every survivor's secure table must equal a
// from-scratch fill over the current membership.
func TestCompactChurnSecureInvariant(t *testing.T) {
	t.Parallel()
	cs := buildTestCompactSystem(t, nil)
	for step := 0; step < 6; step++ {
		victim := cs.NodeID(uint32((step * 29) % cs.Size()))
		if err := cs.FailNode(victim); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := overlay.NewCompact(ringIDs(cs), overlay.DefaultLeafSetPerSide)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5)) // consumed by standard fills only
	for i := 0; i < fresh.Size(); i++ {
		fresh.FillNode(uint32(i), rng)
	}
	for i := uint32(0); i < uint32(cs.Size()); i++ {
		for row := 0; row < id.Digits; row++ {
			for col := byte(0); col < id.Base; col++ {
				want, wantOK := fresh.SecureSlot(i, row, col)
				got, gotOK := cs.Overlay.SecureSlot(i, row, col)
				if gotOK != wantOK || (gotOK && got != want) {
					t.Fatalf("node %d: repaired secure slot (%d,%d) diverges from fresh fill", i, row, col)
				}
			}
		}
	}
}

// TestCompactSystemFootprint bounds the per-node resident cost of the
// compact core at test scale: identifier, slabs (32+64+64 B of key and
// signature material), routing state, and indices. A pointer-per-node
// representation spent ~40KB/node at the same scale.
func TestCompactSystemFootprint(t *testing.T) {
	t.Parallel()
	cs := buildTestCompactSystem(t, nil)
	perNode := cs.Footprint() / int64(cs.Size())
	if perNode <= 0 || perNode > 2048 {
		t.Fatalf("compact footprint %d bytes/node, want (0, 2048]", perNode)
	}
	// Probing fills the archive, which Footprint leaves out, and no
	// per-prober state beside it.
	before := cs.Footprint()
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(3 * time.Minute)
	if cs.Archive.Size() == 0 || cs.Footprint() != before {
		t.Errorf("probing %d records moved the footprint %d → %d B", cs.Archive.Size(), before, cs.Footprint())
	}
}

// TestCompactFailNodeGuards checks that each refused membership change
// returns an error and leaves the membership, the slabs and the ring
// exactly as they were.
func TestCompactFailNodeGuards(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		shrink  bool // fail nodes down to the 4-node floor first
		wantErr string
		op      func(cs *CompactSystem) error
	}{
		{"fail unknown identifier", false, "unknown node", func(cs *CompactSystem) error {
			return cs.FailNode(id.ID{1, 2, 3})
		}},
		{"fail below four nodes", true, "below 4 nodes", func(cs *CompactSystem) error {
			return cs.FailNode(cs.NodeID(0))
		}},
		{"join at a taken identifier", false, "already issued", func(cs *CompactSystem) error {
			_, err := cs.JoinNodeAt(cs.Topo.EndHosts()[0], cs.NodeID(3))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs := buildTestCompactSystem(t, nil)
			for tc.shrink && cs.Size() > 4 {
				if err := cs.FailNode(cs.NodeID(0)); err != nil {
					t.Fatal(err)
				}
			}
			size, slabs := cs.Size(), cs.Overlay.Slabs()
			ring := ringIDs(cs)
			if err := tc.op(cs); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
			if cs.Size() != size || cs.Overlay.Slabs() != slabs {
				t.Fatalf("size %d→%d, slabs %d→%d", size, cs.Size(), slabs, cs.Overlay.Slabs())
			}
			for i, x := range ringIDs(cs) {
				if x != ring[i] {
					t.Fatalf("ring changed at %d", i)
				}
			}
		})
	}
}

// TestDepartedIdentifierNeverRejoins: the CA never reissues an
// identifier, so a departed node's identifier cannot join again — not
// even through JoinNodeAt, which the eclipse model uses to choose
// identifiers — and the refused join leaves the state as it was.
func TestDepartedIdentifierNeverRejoins(t *testing.T) {
	t.Parallel()
	cs := buildTestCompactSystem(t, nil)
	victim := cs.NodeID(5)
	if err := cs.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	before, slabs := cs.CanonicalHash(), cs.Overlay.Slabs()
	if _, err := cs.JoinNodeAt(cs.Topo.EndHosts()[0], victim); err == nil || !strings.Contains(err.Error(), "already issued") {
		t.Fatalf("rejoin of a departed identifier: error %v, want one containing %q", err, "already issued")
	}
	if cs.CanonicalHash() != before || cs.Overlay.Slabs() != slabs {
		t.Fatal("a refused rejoin changed the system")
	}
	if err := cs.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ringIDs returns cs's members in ring order.
func ringIDs(cs *CompactSystem) []id.ID {
	ids := make([]id.ID, cs.Size())
	for i := range ids {
		ids[i] = cs.Overlay.ID(uint32(i))
	}
	return ids
}
