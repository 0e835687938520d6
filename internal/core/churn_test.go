package core

import (
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/topology"
	"concilium/internal/wire"
)

func TestFailNodeRepairsSurvivors(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, nil)
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	s.Run(time.Minute) // every tree cached before the departure
	members := s.AliveIDs()
	victim := members[len(members)/2]
	before := s.Size()

	if err := s.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Overlay.IndexOf(victim); s.Size() != before-1 || ok {
		t.Fatal("victim not removed")
	}
	// Every survivor's state is repaired: the overlay's rules hold over
	// the current membership (no slot names the departed node), and
	// trees cover the current peer sets.
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < uint32(s.Size()); i++ {
		nid := s.NodeID(i)
		peers := s.Overlay.AppendRoutingPeers(i, nil)
		tree, err := s.Tree(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree.Leaves) != len(peers) {
			t.Fatalf("node %s tree out of sync with peers", nid.Short())
		}
		for _, leaf := range tree.Leaves {
			if leaf.Node == victim {
				t.Fatalf("node %s still probes departed %s", nid.Short(), victim.Short())
			}
		}
	}
	// Routing still works end to end.
	members = s.AliveIDs()
	rep, err := s.SendMessage(members[0], members[len(members)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered {
		t.Error("delivery failed after churn repair")
	}
	if err := s.FailNode(victim); err == nil {
		t.Error("double failure accepted")
	}
	if err := s.FailNode(id.Zero); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestJoinNodeIntegrates(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, nil)
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	// Attach the newcomer at a free end-host router.
	used := map[topology.RouterID]bool{}
	for i := uint32(0); i < uint32(s.Size()); i++ {
		used[s.Router(i)] = true
	}
	router := topology.RouterID(-1)
	for _, h := range s.Topo.EndHosts() {
		if !used[h] {
			router = h
			break
		}
	}
	if router < 0 {
		t.Skip("no free end host")
	}
	before := s.Size()
	newID, err := s.JoinNode(router)
	if err != nil {
		t.Fatal(err)
	}
	at, ok := s.Overlay.IndexOf(newID)
	if s.Size() != before+1 || !ok {
		t.Fatal("join not registered")
	}
	tree, err := s.Tree(at)
	if err != nil || len(tree.Leaves) == 0 {
		t.Fatalf("newcomer has no tree: %v", err)
	}
	// Everyone, newcomer included, holds the state the overlay's rules
	// give the grown membership.
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Traffic reaches the newcomer, and its probes land in the archive.
	rep, err := s.SendMessage(s.AliveIDs()[0], newID)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered {
		t.Error("cannot deliver to newcomer")
	}
	s.Run(5 * time.Minute)
	self := s.ProberHandle(newID)
	probed := false
	for _, l := range tree.Links() {
		for _, r := range s.Archive.Window(l, 0, s.Sim.Now()) {
			probed = probed || (self != 0 && r.Prober() == self)
		}
	}
	if !probed {
		t.Error("newcomer never probed")
	}
}

// TestSendMessageCountsPerLeg holds single sends to the traffic
// counters: every send counts as sent, every leg it crosses as
// stewarded-hop bytes, and every judgment (each verdict, and each chain
// link's re-judgment) as one blame call.
func TestSendMessageCountsPerLeg(t *testing.T) {
	t.Parallel()
	reg := metrics.NewRegistry()
	s := buildTestCompactSystem(t, func(c *SystemConfig) { c.Metrics = reg })
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	s.Run(3 * time.Minute)
	src, dst, route := findMultiHopPair(t, s, 2)
	hops := uint64(len(route) - 1)
	counters := func() (sent, bytes, blames uint64) {
		return reg.Counter("core/messages_sent").Value(),
			reg.Counter("wire/message_bytes").Value(),
			reg.Counter("core/blame_calls").Value()
	}
	check := func(label string, n int, legs uint64) {
		t.Helper()
		sent0, bytes0, blames0 := counters()
		judgments := 0
		for range n {
			rep, err := s.SendMessage(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			judgments += len(rep.Verdicts)
			if rep.Chain != nil {
				judgments += len(rep.Chain.Links)
			}
		}
		sent, bytes, blames := counters()
		if got := sent - sent0; got != uint64(n) {
			t.Errorf("%s: core/messages_sent rose %d, want %d", label, got, n)
		}
		if got, want := bytes-bytes0, uint64(n)*legs*wire.StewardedHopBytes; got != want {
			t.Errorf("%s: wire/message_bytes rose %d, want %d", label, got, want)
		}
		if got := blames - blames0; got != uint64(judgments) {
			t.Errorf("%s: core/blame_calls rose %d, want %d (one per judgment)", label, got, judgments)
		}
	}
	check("clean", 20, hops)
	// A dropper at the first hop: each message crosses one leg and dies.
	markDropper(t, s, route[1])
	check("dropper", 10, 1)
}

// TestSelfSendsCountDelivered holds a send to oneself, which crosses no
// link, to the counters of a delivered message: a self-send raises
// core/messages_sent and core/messages_delivered by one each.
func TestSelfSendsCountDelivered(t *testing.T) {
	t.Parallel()
	reg := metrics.NewRegistry()
	s := buildTestCompactSystem(t, func(c *SystemConfig) { c.Metrics = reg })
	self, _, _ := findMultiHopPair(t, s, 2)
	sent, delivered := reg.Counter("core/messages_sent"), reg.Counter("core/messages_delivered")
	rep, err := s.SendMessage(self, self)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered || sent.Value() != 1 || delivered.Value() != 1 {
		t.Errorf("self-send: delivered %v, counters sent %d delivered %d; want true, 1, 1",
			rep.Delivered, sent.Value(), delivered.Value())
	}
}

// sendThroughFirstHop sends n messages src→dst, one at a time, through
// a system whose first interior hop runs policy b, and returns how many
// arrived. No link ever fails, so every loss is the hop's doing.
func sendThroughFirstHop(t *testing.T, b Behavior, n int) (delivered int) {
	t.Helper()
	s := buildTestCompactSystem(t, nil)
	src, dst, route := findMultiHopPair(t, s, 2)
	if err := s.SetBehavior(route[1], b); err != nil {
		t.Fatal(err)
	}
	for range n {
		r, err := s.SendMessage(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if r.Delivered {
			delivered++
		}
	}
	return delivered
}

// TestSendMessageSelectiveDropper: a periodic dropper drops every
// second message it is handed.
func TestSendMessageSelectiveDropper(t *testing.T) {
	t.Parallel()
	if got := sendThroughFirstHop(t, Behavior{DropPeriod: 2}, 10); got != 5 {
		t.Errorf("DropPeriod 2 hop delivered %d of 10; want 5", got)
	}
}

// TestSendMessageProbabilisticDropper: a hop that drops with
// probability 0.9 drops most messages.
func TestSendMessageProbabilisticDropper(t *testing.T) {
	t.Parallel()
	if got := sendThroughFirstHop(t, Behavior{DropProb: 0.9}, 10); got > 5 {
		t.Errorf("DropProb 0.9 hop delivered %d of 10; want at most 5", got)
	}
}
