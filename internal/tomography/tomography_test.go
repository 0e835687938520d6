package tomography

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(41, 43)) }

// fixtureTree builds a concrete branching topology:
//
//	      r0 (root host attach)
//	      |L0
//	      r1
//	    /    \
//	 L1/      \L2
//	  r2       r3
//	L3/ \L4     \L5
//	r4   r5      r6
//
// Leaves at r4, r5, r6; shared trunk L0; branch at r1; sub-branch at r2.
func fixtureTree(t *testing.T) (*topology.Graph, *Tree, []id.ID) {
	t.Helper()
	g, err := topology.NewGraph(7)
	if err != nil {
		t.Fatal(err)
	}
	edges := [][2]topology.RouterID{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {2, 5}, {3, 6}}
	for _, e := range edges {
		if _, err := g.AddLink(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	r := testRand()
	root := id.Random(r)
	peers := []id.ID{id.Random(r), id.Random(r), id.Random(r)}
	tree, err := BuildTree(g, root, 0, []Leaf{
		{Node: peers[0], Router: 4},
		{Node: peers[1], Router: 5},
		{Node: peers[2], Router: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, tree, peers
}

func TestBuildTreeStructure(t *testing.T) {
	t.Parallel()
	_, tree, peers := fixtureTree(t)
	if len(tree.Leaves) != 3 {
		t.Fatalf("leaves = %d", len(tree.Leaves))
	}
	// Links: L0..L5 all appear.
	if got := len(tree.Links()); got != 6 {
		t.Errorf("distinct links = %d, want 6", got)
	}
	for l := topology.LinkID(0); l < 6; l++ {
		if !tree.Contains(l) {
			t.Errorf("link %d missing", l)
		}
	}
	path, ok := tree.PathTo(peers[2])
	if !ok || len(path) != 3 {
		t.Errorf("path to peer2 = %v, %v", path, ok)
	}
	if _, ok := tree.PathTo(id.Zero); ok {
		t.Error("unknown peer has a path")
	}
}

func TestBuildTreeSkipsUnreachable(t *testing.T) {
	t.Parallel()
	g, err := topology.NewGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	r := testRand()
	tree, err := BuildTree(g, id.Random(r), 0, []Leaf{
		{Node: id.Random(r), Router: 1},
		{Node: id.Random(r), Router: 2}, // isolated
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Leaves) != 1 {
		t.Errorf("leaves = %d, want 1 (unreachable skipped)", len(tree.Leaves))
	}
}

func TestBuildForestCoverage(t *testing.T) {
	t.Parallel()
	g, tree, _ := fixtureTree(t)
	r := testRand()
	// A peer tree rooted at r4 reaching r6: path r4-r2-r1-r3-r6 covers
	// links L3, L1, L2, L5.
	other, err := BuildTree(g, id.Random(r), 4, []Leaf{{Node: id.Random(r), Router: 6}})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := BuildForest(tree, []*Tree{other, nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(forest.Peers) != 1 {
		t.Errorf("peer trees = %d", len(forest.Peers))
	}
	if got := len(forest.Links()); got != 6 {
		t.Errorf("forest links = %d, want 6", got)
	}
	// Own tree alone covers everything here (it is a superset).
	if cov := forest.CoverageWithTrees(0); cov != 1 {
		t.Errorf("own coverage = %v, want 1", cov)
	}
	counts := forest.VouchingCounts(1)
	// Trunk links of the peer tree overlap: L1 is in both trees.
	if counts[1] != 2 {
		t.Errorf("vouch count for L1 = %d, want 2", counts[1])
	}
	// L0 only in own tree.
	if counts[0] != 1 {
		t.Errorf("vouch count for L0 = %d, want 1", counts[0])
	}
	if _, err := BuildForest(nil, nil); err == nil {
		t.Error("nil own tree accepted")
	}
}

func TestForestCoverageMonotone(t *testing.T) {
	t.Parallel()
	// Coverage must be non-decreasing in the number of included trees.
	r := testRand()
	g, err := topology.Generate(topology.TestConfig(), r)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.EndHosts()
	if len(hosts) < 10 {
		t.Skip("too few hosts")
	}
	mkTree := func(rootIdx int, peerIdx []int) *Tree {
		var leaves []Leaf
		for _, pi := range peerIdx {
			leaves = append(leaves, Leaf{Node: id.Random(r), Router: hosts[pi]})
		}
		tree, err := BuildTree(g, id.Random(r), hosts[rootIdx], leaves)
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	own := mkTree(0, []int{1, 2, 3, 4, 5})
	var peerTrees []*Tree
	for i := 1; i <= 5; i++ {
		peerTrees = append(peerTrees, mkTree(i, []int{0, (i + 1) % 10, (i + 2) % 10, (i + 3) % 10}))
	}
	forest, err := BuildForest(own, peerTrees)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for k := 0; k <= 5; k++ {
		cov := forest.CoverageWithTrees(k)
		if cov < prev {
			t.Fatalf("coverage decreased at k=%d: %v < %v", k, cov, prev)
		}
		prev = cov
	}
	if forest.CoverageWithTrees(99) != 1 {
		t.Error("full forest does not cover itself")
	}
}

func TestBranchTreeStructure(t *testing.T) {
	t.Parallel()
	_, tree, _ := fixtureTree(t)
	bt, err := buildBranchTree(tree.Leaves)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: root node (segment L0), then node for r2 subtree
	// (segment L1), leaves at r4 (L3), r5 (L4), and r6 (L2+L5).
	if len(bt.parent) != 5 {
		t.Fatalf("nodes = %d, want 5", len(bt.parent))
	}
	if bt.parent[0] != -1 || len(bt.segLinks[0]) != 1 {
		t.Errorf("root segment = %v", bt.segLinks[0])
	}
	depth := bt.depths()
	// Leaves 0 and 1 (r4, r5) should meet strictly below the meeting
	// point of leaves 0 and 2.
	m01 := bt.lca(bt.leafOf[0], bt.leafOf[1], depth)
	m02 := bt.lca(bt.leafOf[0], bt.leafOf[2], depth)
	if depth[m01] <= depth[m02] {
		t.Errorf("meet depths: m01=%d m02=%d", depth[m01], depth[m02])
	}
	if m02 != 0 {
		t.Errorf("r4/r6 should meet at the root node, got %d", m02)
	}
	if _, err := buildBranchTree(nil); err == nil {
		t.Error("empty leaf set accepted")
	}
}

func newFixtureNetwork(t *testing.T, g *topology.Graph, loss netsim.LossModel) *netsim.Network {
	t.Helper()
	net, err := netsim.NewNetwork(g, netsim.NewSimulator(), netsim.WithLossModel(loss))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestLightweightProbeAllUp(t *testing.T) {
	t.Parallel()
	g, tree, _ := fixtureTree(t)
	net := newFixtureNetwork(t, g, netsim.BinaryLossModel())
	p, err := NewProber(tree, net, testRand())
	if err != nil {
		t.Fatal(err)
	}
	res := p.LightweightProbe(2)
	for i, acked := range res.Acked {
		if !acked {
			t.Errorf("leaf %d not acked on healthy tree", i)
		}
	}
	if res.Packets != 3 {
		t.Errorf("packets = %d, want 3 (no retries needed)", res.Packets)
	}
}

func TestLightweightProbeDetectsDownLink(t *testing.T) {
	t.Parallel()
	g, tree, _ := fixtureTree(t)
	net := newFixtureNetwork(t, g, netsim.BinaryLossModel())
	// Fail L5 (r3->r6): only leaf 2 affected.
	if err := net.SetLinkDown(5, true); err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(tree, net, testRand())
	if err != nil {
		t.Fatal(err)
	}
	res := p.LightweightProbe(2)
	if !res.Acked[0] || !res.Acked[1] {
		t.Error("unaffected leaves lost acks")
	}
	if res.Acked[2] {
		t.Error("leaf behind down link acked")
	}
	// 3 initial + 2 retries for the silent leaf.
	if res.Packets != 5 {
		t.Errorf("packets = %d, want 5", res.Packets)
	}
}

func TestLightweightProbeSharedTrunkFate(t *testing.T) {
	t.Parallel()
	// With the trunk L0 down, every leaf must fail in the initial stripe
	// (shared fate), not independently.
	g, tree, _ := fixtureTree(t)
	net := newFixtureNetwork(t, g, netsim.BinaryLossModel())
	if err := net.SetLinkDown(0, true); err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(tree, net, testRand())
	if err != nil {
		t.Fatal(err)
	}
	res := p.LightweightProbe(0)
	for i, acked := range res.Acked {
		if acked {
			t.Errorf("leaf %d acked through down trunk", i)
		}
	}
}

func TestLightweightProbeBudgetStopsAtPacketCap(t *testing.T) {
	t.Parallel()
	g, tree, _ := fixtureTree(t)
	net := newFixtureNetwork(t, g, netsim.BinaryLossModel())
	// Trunk down: all three leaves silent, so unlimited retries would
	// spend 3 packets per round.
	if err := net.SetLinkDown(0, true); err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(tree, net, testRand())
	if err != nil {
		t.Fatal(err)
	}
	res := p.LightweightProbeBudget(RetryBudget{Retries: 10, PacketBudget: 4, Backoff: time.Second})
	if !res.BudgetExhausted {
		t.Error("packet cap never tripped")
	}
	// 3 initial + 4 budgeted retries.
	if res.Packets != 7 {
		t.Errorf("packets = %d, want 7", res.Packets)
	}
	if res.Unreached != 3 {
		t.Errorf("unreached = %d, want 3", res.Unreached)
	}
	// Backoff doubles per completed round: 1s then 2s.
	if res.BackoffTotal != 3*time.Second {
		t.Errorf("backoff total = %v, want 3s", res.BackoffTotal)
	}
}

func TestLightweightProbeBudgetMatchesLegacySweep(t *testing.T) {
	t.Parallel()
	// With an unlimited packet budget the budgeted sweep must consume
	// randomness identically to LightweightProbe — same acks, same
	// packet count — for a lossy network where retries matter.
	g, tree, _ := fixtureTree(t)
	lossy := netsim.LossModel{BaseLoss: 0.3, DownLoss: 1}
	netA := newFixtureNetwork(t, g, lossy)
	netB := newFixtureNetwork(t, g, lossy)
	pa, err := NewProber(tree, netA, rand.New(rand.NewPCG(41, 42)))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewProber(tree, netB, rand.New(rand.NewPCG(41, 42)))
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 0; sweep < 20; sweep++ {
		legacy := pa.LightweightProbe(3)
		budget := pb.LightweightProbeBudget(RetryBudget{Retries: 3})
		if legacy.Packets != budget.Packets {
			t.Fatalf("sweep %d: packets %d vs %d", sweep, legacy.Packets, budget.Packets)
		}
		for i := range legacy.Acked {
			if legacy.Acked[i] != budget.Acked[i] {
				t.Fatalf("sweep %d leaf %d: ack %v vs %v", sweep, i, legacy.Acked[i], budget.Acked[i])
			}
		}
	}
}

func TestHeavyweightProbeInfersLossyLink(t *testing.T) {
	t.Parallel()
	g, tree, _ := fixtureTree(t)
	// L1 (r1->r2) loses 40% of packets; everything else is clean.
	net := newFixtureNetwork(t, g, netsim.LossModel{BaseLoss: 0, DownLoss: 0.4})
	if err := net.SetLinkDown(1, true); err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(tree, net, testRand())
	if err != nil {
		t.Fatal(err)
	}
	est, err := p.HeavyweightProbe(HeavyweightConfig{StripesPerPair: 2000, PacketsPerStripe: 2})
	if err != nil {
		t.Fatal(err)
	}
	lossL1, ok := est.LinkLoss(1)
	if !ok {
		t.Fatal("L1 not estimated")
	}
	if math.Abs(lossL1-0.4) > 0.08 {
		t.Errorf("L1 loss = %v, want ~0.4", lossL1)
	}
	// The clean trunk and the clean far branch must show near-zero loss.
	for _, l := range []topology.LinkID{0, 2, 5} {
		loss, ok := est.LinkLoss(l)
		if !ok {
			t.Fatalf("link %d not estimated", l)
		}
		if loss > 0.08 {
			t.Errorf("clean link %d loss = %v", l, loss)
		}
	}
	// Binary conversion.
	obs := est.Observations(0.25)
	byLink := map[topology.LinkID]bool{}
	for _, o := range obs {
		byLink[o.Link] = o.Up
	}
	if byLink[1] {
		t.Error("lossy link reported up")
	}
	if !byLink[0] || !byLink[5] {
		t.Error("clean link reported down")
	}
}

func TestHeavyweightProbeCleanTree(t *testing.T) {
	t.Parallel()
	g, tree, _ := fixtureTree(t)
	net := newFixtureNetwork(t, g, netsim.BinaryLossModel())
	p, err := NewProber(tree, net, testRand())
	if err != nil {
		t.Fatal(err)
	}
	est, err := p.HeavyweightProbe(DefaultHeavyweightConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range est.Segments {
		if seg.Loss > 1e-9 {
			t.Errorf("segment %v loss = %v on clean tree", seg.Links, seg.Loss)
		}
	}
	for i, m := range est.Marginals {
		if m != 1 {
			t.Errorf("leaf %d marginal = %v", i, m)
		}
	}
	if est.Packets == 0 || est.Stripes == 0 {
		t.Error("no accounting recorded")
	}
}

func TestHeavyweightProbeSingleLeaf(t *testing.T) {
	t.Parallel()
	g, err := topology.NewGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(1, 2); err != nil {
		t.Fatal(err)
	}
	r := testRand()
	tree, err := BuildTree(g, id.Random(r), 0, []Leaf{{Node: id.Random(r), Router: 2}})
	if err != nil {
		t.Fatal(err)
	}
	net := newFixtureNetwork(t, g, netsim.LossModel{BaseLoss: 0.3, DownLoss: 1})
	p, err := NewProber(tree, net, r)
	if err != nil {
		t.Fatal(err)
	}
	est, err := p.HeavyweightProbe(HeavyweightConfig{StripesPerPair: 3000, PacketsPerStripe: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Two links each at 30%: end-to-end ~51% loss, unlocalizable — the
	// single segment should carry it.
	if len(est.Segments) != 1 {
		t.Fatalf("segments = %d, want 1", len(est.Segments))
	}
	if math.Abs(est.Segments[0].Loss-0.51) > 0.05 {
		t.Errorf("segment loss = %v, want ~0.51", est.Segments[0].Loss)
	}
}

func TestHeavyweightConfigValidate(t *testing.T) {
	t.Parallel()
	if err := DefaultHeavyweightConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (HeavyweightConfig{StripesPerPair: 0, PacketsPerStripe: 2}).Validate(); err == nil {
		t.Error("zero stripes accepted")
	}
	if err := (HeavyweightConfig{StripesPerPair: 1, PacketsPerStripe: 1}).Validate(); err == nil {
		t.Error("1-packet stripe accepted")
	}
	g, tree, _ := fixtureTree(t)
	net := newFixtureNetwork(t, g, netsim.BinaryLossModel())
	p, err := NewProber(tree, net, testRand())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.HeavyweightProbe(HeavyweightConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestObserveLinksAccuracy(t *testing.T) {
	t.Parallel()
	g, tree, _ := fixtureTree(t)
	net := newFixtureNetwork(t, g, netsim.BinaryLossModel())
	if err := net.SetLinkDown(2, true); err != nil {
		t.Fatal(err)
	}
	r := testRand()
	// Perfect accuracy: observations match truth.
	obs, err := ObserveLinks(net, tree.Links(), 1.0, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if o.Up == net.LinkDown(o.Link) {
			t.Fatalf("perfect observation wrong for link %d", o.Link)
		}
	}
	// 90% accuracy: error rate ~10%.
	var wrong, total int
	for trial := 0; trial < 3000; trial++ {
		obs, err := ObserveLinks(net, tree.Links(), 0.9, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range obs {
			total++
			if o.Up == net.LinkDown(o.Link) {
				wrong++
			}
		}
	}
	rate := float64(wrong) / float64(total)
	if math.Abs(rate-0.10) > 0.02 {
		t.Errorf("observation error rate = %v, want ~0.10", rate)
	}
	if _, err := ObserveLinks(net, tree.Links(), 0.3, r); err == nil {
		t.Error("accuracy below 0.5 accepted")
	}
}

func TestArchiveWindowQueries(t *testing.T) {
	t.Parallel()
	a := NewArchive(8)
	const p1, p2 = ProberHandle(1), ProberHandle(2)
	add := func(prober ProberHandle, at netsim.Time, up bool) {
		t.Helper()
		if err := a.Record(prober, at, []LinkObservation{{Link: 7, Up: up}}); err != nil {
			t.Fatal(err)
		}
	}
	add(p1, 100, true)
	add(p2, 200, false)
	add(p1, 300, true)

	recs := a.Window(7, 150, 250)
	if len(recs) != 1 || recs[0].Prober() != p2 || recs[0].Up() {
		t.Errorf("window [150,250] = %+v", recs)
	}
	// Inclusive bounds.
	recs = a.Window(7, 100, 300)
	if len(recs) != 3 {
		t.Errorf("window [100,300] = %d records", len(recs))
	}
	// Unknown link.
	if got := a.Window(99, 0, 1000); len(got) != 0 {
		t.Errorf("unknown link returned %d records", len(got))
	}
	// Out-of-order insert rejected.
	if err := a.Record(p1, 50, []LinkObservation{{Link: 7, Up: true}}); err == nil {
		t.Error("out-of-order record accepted")
	}
	// A negative link is rejected, and so is nothing stored for it.
	if err := a.Record(p1, 400, []LinkObservation{{Link: -1, Up: true}}); err == nil {
		t.Error("negative link accepted")
	}
	if got := a.Window(-1, 0, 1000); len(got) != 0 || a.Size() != 3 {
		t.Errorf("negative link left %d records, size %d", len(got), a.Size())
	}
	// So is a link past the archive's link count, however large, and
	// the archive does not grow for it.
	bytes := a.Footprint()
	for _, l := range []topology.LinkID{8, math.MaxInt32} {
		if err := a.Record(p1, 400, []LinkObservation{{Link: l, Up: true}}); err == nil {
			t.Errorf("link %d accepted by an archive of 8 links", l)
		}
		if got := a.Window(l, 0, 1000); len(got) != 0 || a.Size() != 3 || a.Footprint() != bytes {
			t.Errorf("link %d left %d records, size %d, footprint %d B (was %d B)",
				l, len(got), a.Size(), a.Footprint(), bytes)
		}
	}
}

func TestArchivePrune(t *testing.T) {
	t.Parallel()
	a := NewArchive(8)
	const p = ProberHandle(1)
	for i := 0; i < 10; i++ {
		if err := a.Record(p, netsim.Time(i*100), []LinkObservation{{Link: 1, Up: true}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Record(p, 0, []LinkObservation{{Link: 2, Up: false}}); err != nil {
		t.Fatal(err)
	}
	if a.Size() != 11 {
		t.Fatalf("Size = %d", a.Size())
	}
	a.Prune(500)
	if a.Size() != 5 {
		t.Errorf("after prune Size = %d, want 5", a.Size())
	}
	if got := a.Window(2, 0, 1000); len(got) != 0 {
		t.Error("fully pruned link still has records")
	}
	if got := a.Window(1, 0, 1000); len(got) != 5 {
		t.Errorf("link 1 has %d records, want 5", len(got))
	}
}

func TestVerifyFeedbackHonestLeavesPass(t *testing.T) {
	t.Parallel()
	g, tree, _ := fixtureTree(t)
	net := newFixtureNetwork(t, g, netsim.LossModel{BaseLoss: 0.05, DownLoss: 1})
	p, err := NewProber(tree, net, testRand())
	if err != nil {
		t.Fatal(err)
	}
	est, err := p.HeavyweightProbe(HeavyweightConfig{StripesPerPair: 1000, PacketsPerStripe: 2})
	if err != nil {
		t.Fatal(err)
	}
	sus, err := VerifyFeedback(est, DefaultFeedbackConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sus) != 0 {
		t.Errorf("honest leaves flagged: %+v", sus)
	}
}

func TestVerifyFeedbackFlagsImpossiblePattern(t *testing.T) {
	t.Parallel()
	// Hand-build a measurement in which leaf 0's reported acks are
	// anti-correlated with its siblings — P_ij far below P_i·P_j pushes
	// the ancestor estimate above 1, which honest loss cannot produce.
	_, tree, peers := fixtureTree(t)
	bt, err := buildBranchTree(tree.Leaves)
	if err != nil {
		t.Fatal(err)
	}
	m := newMeasurement(3)
	const stripes = 500
	for s := 0; s < stripes; s++ {
		honest1 := s%10 != 0 // ~90% delivery
		honest2 := s%12 != 0
		liar := !honest1 // acks exactly when sibling 1 fails
		m.record(0, liar, 1, honest1, true)
		m.record(0, liar, 2, honest2, true)
		m.record(1, honest1, 2, honest2, true)
	}
	est, err := inferLoss(tree, bt, m)
	if err != nil {
		t.Fatal(err)
	}
	sus, err := VerifyFeedback(est, DefaultFeedbackConfig())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sus {
		if s.Node == peers[0] {
			found = true
		}
		if s.Node == peers[2] {
			t.Errorf("honest leaf %s flagged", s.Node.Short())
		}
	}
	if !found {
		t.Error("anti-correlated leaf not flagged")
	}
}

func TestVerifyFeedbackValidation(t *testing.T) {
	t.Parallel()
	if _, err := VerifyFeedback(nil, DefaultFeedbackConfig()); err == nil {
		t.Error("nil estimate accepted")
	}
	bad := DefaultFeedbackConfig()
	bad.Slack = -1
	if _, err := VerifyFeedback(&LossEstimate{}, bad); err == nil {
		t.Error("negative slack accepted")
	}
	bad = DefaultFeedbackConfig()
	bad.MinPairs = 0
	if _, err := VerifyFeedback(&LossEstimate{}, bad); err == nil {
		t.Error("zero MinPairs accepted")
	}
	bad = DefaultFeedbackConfig()
	bad.FlagFraction = 0
	if _, err := VerifyFeedback(&LossEstimate{}, bad); err == nil {
		t.Error("zero FlagFraction accepted")
	}
}

func BenchmarkHeavyweightProbe(b *testing.B) {
	g, err := topology.NewGraph(7)
	if err != nil {
		b.Fatal(err)
	}
	edges := [][2]topology.RouterID{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {2, 5}, {3, 6}}
	for _, e := range edges {
		if _, err := g.AddLink(e[0], e[1]); err != nil {
			b.Fatal(err)
		}
	}
	r := testRand()
	tree, err := BuildTree(g, id.Random(r), 0, []Leaf{
		{Node: id.Random(r), Router: 4},
		{Node: id.Random(r), Router: 5},
		{Node: id.Random(r), Router: 6},
	})
	if err != nil {
		b.Fatal(err)
	}
	net, err := netsim.NewNetwork(g, netsim.NewSimulator(),
		netsim.WithLossModel(netsim.LossModel{BaseLoss: 0.02, DownLoss: 1}))
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProber(tree, net, r)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultHeavyweightConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.HeavyweightProbe(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
