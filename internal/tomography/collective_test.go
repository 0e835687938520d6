package tomography

import (
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// collectiveFixture builds two hosts in the same stub whose trees share
// the trunk: host A at r4, host B at r5 (fixtureTree's sibling leaves),
// both probing toward r6.
func collectiveFixture(t *testing.T) (*topology.Graph, []id.ID, map[id.ID]*Tree) {
	t.Helper()
	g, _, _ := fixtureTree(t)
	r := testRand()
	a, b := id.Random(r), id.Random(r)
	peer := id.Random(r)
	treeA, err := BuildTree(g, a, 4, []Leaf{{Node: peer, Router: 6}})
	if err != nil {
		t.Fatal(err)
	}
	treeB, err := BuildTree(g, b, 5, []Leaf{{Node: peer, Router: 6}})
	if err != nil {
		t.Fatal(err)
	}
	return g, []id.ID{a, b}, map[id.ID]*Tree{a: treeA, b: treeB}
}

func TestCollectiveValidation(t *testing.T) {
	t.Parallel()
	_, members, trees := collectiveFixture(t)
	if _, err := NewCollective(nil, trees); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewCollective([]id.ID{members[0], members[0]}, trees); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewCollective([]id.ID{members[0], id.Zero}, trees); err == nil {
		t.Error("member without tree accepted")
	}
}

func TestCollectiveUnionAndSavings(t *testing.T) {
	t.Parallel()
	_, members, trees := collectiveFixture(t)
	c, err := NewCollective(members, trees)
	if err != nil {
		t.Fatal(err)
	}
	// Tree A (r4->r6): L3, L1, L2, L5. Tree B (r5->r6): L4, L1, L2, L5.
	// Union: 5 links; individual total: 8.
	if got := len(c.MultiForestLinks()); got != 5 {
		t.Errorf("union links = %d, want 5", got)
	}
	individual, shared, factor := c.Savings()
	if individual != 8 || shared != 5 {
		t.Errorf("savings = %d/%d, want 8/5", individual, shared)
	}
	if factor <= 1 {
		t.Errorf("factor = %v, want > 1 (amortization)", factor)
	}
}

func TestCollectiveRoundRobin(t *testing.T) {
	t.Parallel()
	_, members, trees := collectiveFixture(t)
	c, err := NewCollective(members, trees)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[id.ID]int{}
	for i := 0; i < 6; i++ {
		seen[c.NextProber()]++
	}
	for _, m := range members {
		if seen[m] != 3 {
			t.Errorf("member %s probed %d times, want 3", m.Short(), seen[m])
		}
	}
}

func TestCollectiveProbeOnce(t *testing.T) {
	t.Parallel()
	g, members, trees := collectiveFixture(t)
	c, err := NewCollective(members, trees)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.NewNetwork(g, netsim.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkDown(1, true); err != nil {
		t.Fatal(err)
	}
	prober, obs, err := c.ProbeOnce(net, 1.0, testRand())
	if err != nil {
		t.Fatal(err)
	}
	if prober != members[0] {
		t.Errorf("first turn = %s, want first member", prober.Short())
	}
	if len(obs) != 5 {
		t.Fatalf("observations = %d, want 5", len(obs))
	}
	for _, o := range obs {
		if o.Link == 1 && o.Up {
			t.Error("down link observed up at perfect accuracy")
		}
		if o.Link != 1 && !o.Up {
			t.Errorf("healthy link %d observed down", o.Link)
		}
	}
	// Bad accuracy propagates.
	if _, _, err := c.ProbeOnce(net, 0.2, testRand()); err == nil {
		t.Error("bad accuracy accepted")
	}
}

func TestEscalateSchedulesEveryPeer(t *testing.T) {
	t.Parallel()
	g, tree, _ := fixtureTree(t)
	r := testRand()
	net, err := netsim.NewNetwork(g, netsim.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	sim := net.Sim()
	// Three probers sharing the fixture tree (any trees work).
	ids := []id.ID{id.Random(r), id.Random(r), id.Random(r)}
	probers := make(map[id.ID]*Prober, 3)
	for _, nid := range ids {
		p, err := NewProber(tree, net, r)
		if err != nil {
			t.Fatal(err)
		}
		probers[nid] = p
	}
	var results []id.ID
	err = Escalate(sim, ids[0], probers, DefaultEscalationConfig(), r,
		func(who id.ID, est *LossEstimate) {
			if est == nil || est.Stripes == 0 {
				t.Error("empty estimate delivered")
			}
			results = append(results, who)
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunFor(time.Minute)
	if len(results) != 3 {
		t.Fatalf("results from %d probers, want 3", len(results))
	}
	// The trigger runs first, at time zero.
	if results[0] != ids[0] {
		t.Errorf("first result from %s, want trigger", results[0].Short())
	}
}

func TestEscalateValidation(t *testing.T) {
	t.Parallel()
	g, tree, _ := fixtureTree(t)
	r := testRand()
	net, err := netsim.NewNetwork(g, netsim.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(tree, net, r)
	if err != nil {
		t.Fatal(err)
	}
	trigger := id.Random(r)
	probers := map[id.ID]*Prober{trigger: p}
	cb := func(id.ID, *LossEstimate) {}
	if err := Escalate(nil, trigger, probers, DefaultEscalationConfig(), r, cb, nil); err == nil {
		t.Error("nil simulator accepted")
	}
	if err := Escalate(net.Sim(), id.Zero, probers, DefaultEscalationConfig(), r, cb, nil); err == nil {
		t.Error("unknown trigger accepted")
	}
	if err := Escalate(net.Sim(), trigger, probers, DefaultEscalationConfig(), r, nil, nil); err == nil {
		t.Error("nil callback accepted")
	}
	bad := DefaultEscalationConfig()
	bad.MaxPeerDelay = -time.Second
	if err := Escalate(net.Sim(), trigger, probers, bad, r, cb, nil); err == nil {
		t.Error("negative delay accepted")
	}
	bad = DefaultEscalationConfig()
	bad.Heavyweight.StripesPerPair = 0
	if err := Escalate(net.Sim(), trigger, probers, bad, r, cb, nil); err == nil {
		t.Error("invalid heavyweight config accepted")
	}
}

func TestShouldEscalate(t *testing.T) {
	t.Parallel()
	if ShouldEscalate(LightweightResult{Acked: []bool{true, true}}) {
		t.Error("all-acked triggered escalation")
	}
	if !ShouldEscalate(LightweightResult{Acked: []bool{true, false}}) {
		t.Error("missing ack did not trigger escalation")
	}
	if ShouldEscalate(LightweightResult{}) {
		t.Error("empty result triggered escalation")
	}
}

func TestEscalateErrorCallback(t *testing.T) {
	t.Parallel()
	// A prober over a leafless tree fails; the error must surface via
	// onError, not panic or silence.
	g, err := topology.NewGraph(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	r := testRand()
	empty, err := BuildTree(g, id.Random(r), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.NewNetwork(g, netsim.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProber(empty, net, r)
	if err != nil {
		t.Fatal(err)
	}
	trigger := id.Random(r)
	var gotErr error
	err = Escalate(net.Sim(), trigger, map[id.ID]*Prober{trigger: p},
		DefaultEscalationConfig(), r,
		func(id.ID, *LossEstimate) { t.Error("result from failing prober") },
		func(_ id.ID, e error) { gotErr = e })
	if err != nil {
		t.Fatal(err)
	}
	net.Sim().RunFor(time.Minute)
	if gotErr == nil {
		t.Error("measurement error not reported")
	}
}
