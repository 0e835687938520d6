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

func TestSendBulkCleanAndLossy(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, nil)
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	s.Run(3 * time.Minute)
	src, dst, route := findMultiHopPair(t, s, 2)

	// Clean batch: everything delivered and cleared; no verdicts.
	rep, err := s.SendBulk(src, dst, 20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 20 || rep.Cleared != 20 || len(rep.Missing) != 0 {
		t.Fatalf("clean bulk: %+v", rep)
	}
	if rep.AckDigests != 20 {
		t.Errorf("ack digests = %d", rep.AckDigests)
	}

	// Dropper on the first hop: everything missing, verdicts issued.
	dropper := route[1]
	markDropper(t, s, dropper)
	rep, err = s.SendBulk(src, dst, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 0 || len(rep.Missing) != 10 {
		t.Fatalf("dropper bulk: %+v", rep)
	}
	if len(rep.Verdicts) != 10 {
		t.Fatalf("verdicts = %d, want 10", len(rep.Verdicts))
	}
	for _, v := range rep.Verdicts {
		if v.Judged != dropper || !v.Guilty {
			t.Fatalf("verdict %+v, want guilty against dropper", v)
		}
	}
	// Window accumulated them.
	if got := s.GuiltyCount(dropper); got != 10 {
		t.Errorf("window guilty count = %d", got)
	}
	if _, err := s.SendBulk(src, dst, 0); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := s.SendBulk(id.Zero, dst, 1); err == nil {
		t.Error("unknown source accepted")
	}
}

// TestSendBulkCountsLikeSendMessage holds a batch to SendMessage's
// accounting: every message counts as sent, every leg it crosses as
// stewarded-hop bytes, and every judgment of a missing message as a
// blame call.
func TestSendBulkCountsLikeSendMessage(t *testing.T) {
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
		rep, err := s.SendBulk(src, dst, n)
		if err != nil {
			t.Fatal(err)
		}
		sent, bytes, blames := counters()
		if got := sent - sent0; got != uint64(n) {
			t.Errorf("%s: core/messages_sent rose %d, want %d", label, got, n)
		}
		if got, want := bytes-bytes0, uint64(n)*legs*wire.StewardedHopBytes; got != want {
			t.Errorf("%s: wire/message_bytes rose %d, want %d", label, got, want)
		}
		if got := blames - blames0; got != uint64(len(rep.Missing)) {
			t.Errorf("%s: core/blame_calls rose %d, want %d (one per missing message)", label, got, len(rep.Missing))
		}
	}
	check("clean", 20, hops)
	// A dropper at the first hop: each message crosses one leg and dies.
	markDropper(t, s, route[1])
	check("dropper", 10, 1)
}

// TestSelfSendsCountDelivered holds a send to oneself, which crosses no
// link, to the counters of a delivered message: one self-send and one
// self-batch of n each raise core/messages_sent and
// core/messages_delivered by their message count.
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
	const n = 7
	bulk, err := s.SendBulk(self, self, n)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Delivered != n || sent.Value() != 1+n || delivered.Value() != 1+n {
		t.Errorf("self-batch of %d: delivered %d, counters sent %d delivered %d; want %d, %d, %d",
			n, bulk.Delivered, sent.Value(), delivered.Value(), n, 1+n, 1+n)
	}
}

// bulkThroughFirstHop routes n messages src→dst through a system whose
// first interior hop runs policy b, once as a bulk batch and once as n
// single sends, and returns how many each delivered. No link ever
// fails, so every loss is the hop's doing.
func bulkThroughFirstHop(t *testing.T, b Behavior, n int) (bulk, single int) {
	t.Helper()
	s := buildTestCompactSystem(t, nil)
	src, dst, route := findMultiHopPair(t, s, 2)
	if err := s.SetBehavior(route[1], b); err != nil {
		t.Fatal(err)
	}
	rep, err := s.SendBulk(src, dst, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r, err := s.SendMessage(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if r.Delivered {
			single++
		}
	}
	return rep.Delivered, single
}

// TestSendBulkSelectiveDropper holds SendBulk to SendMessage's drop
// rule for a periodic dropper: every second forward is dropped, in a
// batch as in single sends.
func TestSendBulkSelectiveDropper(t *testing.T) {
	t.Parallel()
	bulk, single := bulkThroughFirstHop(t, Behavior{DropPeriod: 2}, 10)
	if bulk != 5 || single != 5 {
		t.Errorf("DropPeriod 2 hop delivered %d of 10 in bulk, %d of 10 singly; want 5 and 5", bulk, single)
	}
}

// TestSendBulkProbabilisticDropper: a hop that drops with probability
// 0.9 must drop most of a batch too.
func TestSendBulkProbabilisticDropper(t *testing.T) {
	t.Parallel()
	bulk, single := bulkThroughFirstHop(t, Behavior{DropProb: 0.9}, 10)
	if bulk > 5 || single > 5 {
		t.Errorf("DropProb 0.9 hop delivered %d of 10 in bulk, %d of 10 singly", bulk, single)
	}
}

// TestSendBulkHopDepartsMidBatch fails the first interior hop halfway
// through a batch: the messages that reach it after its departure are
// not received, as DropByChurn is for a single send.
func TestSendBulkHopDepartsMidBatch(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, nil)
	src, dst, route := findMultiHopPair(t, s, 2)
	// One message's forward pass takes the route's whole latency; the
	// batch sends back to back, so message m reaches the first hop
	// before m+1 passes start.
	start := s.Sim.Now()
	if _, err := s.SendBulk(src, dst, 1); err != nil {
		t.Fatal(err)
	}
	pass := time.Duration(s.Sim.Now() - start)
	if err := s.Sim.ScheduleAfter(5*pass-1, func() {
		if err := s.FailNode(route[1]); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.SendBulk(src, dst, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 5 || len(rep.Missing) != 5 {
		t.Errorf("hop departed after 5 of 10: delivered %d, missing %d", rep.Delivered, len(rep.Missing))
	}
}
