package tomography

import (
	"testing"

	"concilium/internal/netsim"
)

// TestLightweightProbeAllocFree locks in the prober's scratch arenas: a
// warm prober's availability sweep reuses its ack buffer and shared-fate
// map, so steady-state sweeps must not touch the heap at all.
func TestLightweightProbeAllocFree(t *testing.T) {
	g, tree, _ := fixtureTree(t)
	net := newFixtureNetwork(t, g, netsim.BinaryLossModel())
	p, err := NewProber(tree, net, testRand())
	if err != nil {
		t.Fatal(err)
	}
	// First sweep grows the scratch to the tree's size.
	p.LightweightProbe(2)
	n := testing.AllocsPerRun(100, func() {
		res := p.LightweightProbe(2)
		if len(res.Acked) != len(tree.Leaves) {
			t.Fatalf("acked %d leaves, want %d", len(res.Acked), len(tree.Leaves))
		}
	})
	if n > 0 {
		t.Errorf("warm LightweightProbe allocates %.1f/op, want 0", n)
	}
}

// TestArchiveRecordSteadyStateAllocFree locks in the chunk pools: once
// a retention-bounded archive is in steady state, sweeps reuse the
// chunks each Prune frees, so recording and pruning allocate nothing.
// Steady state takes several retention periods here: a link on few
// trees fills its 8-record chunk over that long before turning it over.
func TestArchiveRecordSteadyStateAllocFree(t *testing.T) {
	const retention = 800
	s := newSweeper(2, 256, 64, 20000)
	a := NewArchive(s.links)
	s.run(t, a, 12*retention, retention)
	n := testing.AllocsPerRun(8, func() { s.run(t, a, retention/4, retention) })
	if n != 0 {
		t.Errorf("steady-state sweeps and prune allocate %.1f per quarter retention, want 0", n)
	}
}

// TestArchiveSettledSteadyStateAllocFree is the same lock for an
// archive read as it is written: a Span every 50 sweeps settles what
// was staged since the last one, so the log's blocks return to the
// free list and the chunk pools turn over as well.
func TestArchiveSettledSteadyStateAllocFree(t *testing.T) {
	const retention, every = 800, 50
	s := newSweeper(2, 256, 64, 20000)
	a := NewArchive(s.links)
	run := func(n int) {
		for i := 0; i < n; i += every {
			s.run(t, a, every, retention)
			a.Span(0, 0, s.now)
		}
	}
	run(12 * retention)
	if a.pending.Load() {
		t.Fatal("a read left sweeps staged")
	}
	n := testing.AllocsPerRun(8, func() { run(retention / 4) })
	if n != 0 {
		t.Errorf("steady-state sweeps, reads and prune allocate %.1f per quarter retention, want 0", n)
	}
}

// TestHeavyweightProbeReusesScratch verifies the heavyweight path's
// measurement and branch-tree scratch: a second round on the same
// prober must reuse the accumulators and produce results identical to
// the first prober's when the random streams match.
func TestHeavyweightProbeReusesScratch(t *testing.T) {
	g, tree, _ := fixtureTree(t)
	netA := newFixtureNetwork(t, g, netsim.BinaryLossModel())
	netB := newFixtureNetwork(t, g, netsim.BinaryLossModel())
	pa, err := NewProber(tree, netA, testRand())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewProber(tree, netB, testRand())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultHeavyweightConfig()
	// pa runs twice (second round reuses its scratch); pb runs once with
	// a stream advanced identically, so round two must match pb exactly.
	if _, err := pa.HeavyweightProbe(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.HeavyweightProbe(cfg); err != nil {
		t.Fatal(err)
	}
	round2, err := pa.HeavyweightProbe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := pb.HeavyweightProbe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if round2.Stripes != fresh.Stripes || round2.Packets != fresh.Packets {
		t.Fatalf("reused round: %d stripes/%d packets, fresh: %d/%d",
			round2.Stripes, round2.Packets, fresh.Stripes, fresh.Packets)
	}
	if len(round2.Marginals) != len(fresh.Marginals) {
		t.Fatalf("marginal count %d vs %d", len(round2.Marginals), len(fresh.Marginals))
	}
	for i := range round2.Marginals {
		if round2.Marginals[i] != fresh.Marginals[i] {
			t.Errorf("marginal[%d] = %v on reused scratch, %v fresh", i, round2.Marginals[i], fresh.Marginals[i])
		}
	}
	for _, l := range tree.Links() {
		a, okA := round2.LinkLoss(l)
		b, okB := fresh.LinkLoss(l)
		if okA != okB || a != b {
			t.Errorf("link %d loss %v/%v on reused scratch, %v/%v fresh", l, a, okA, b, okB)
		}
	}
}
