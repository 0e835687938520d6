package core

import (
	"testing"
	"time"

	"concilium/internal/id"
)

// The churn-under-traffic tests interleave FailNode/JoinNode with
// in-flight SendMessage calls: departures are scheduled on the
// simulator so they fire during the latency advances inside the
// forward pass, exactly where a crash races the protocol.

// churnTestSystem builds a probed system with slow hops so there is
// real virtual time to schedule churn into, and enough nodes that
// FailNode is permitted.
func churnTestSystem(t *testing.T) *CompactSystem {
	t.Helper()
	s := buildTestCompactSystem(t, func(c *SystemConfig) {
		c.HopLatency = time.Second
	})
	if s.Size() <= 5 {
		t.Skip("overlay too small to remove nodes")
	}
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	s.Run(3 * time.Minute)
	return s
}

// scheduleDeparture fails nid after delay of virtual time.
func scheduleDeparture(t *testing.T, s *CompactSystem, nid id.ID, delay time.Duration) {
	t.Helper()
	err := s.Sim.ScheduleAfter(delay, func() {
		if err := s.FailNode(nid); err != nil {
			t.Errorf("FailNode(%s): %v", nid.Short(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendMessageNextHopDepartsMidFlight(t *testing.T) {
	t.Parallel()
	s := churnTestSystem(t)
	src, dst, route := findMultiHopPair(t, s, 2)

	// The first intermediate hop crashes while the message is crossing
	// the first IP path toward it.
	departed := route[1]
	scheduleDeparture(t, s, departed, 500*time.Millisecond)

	rep, err := s.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("message delivered through a departed node")
	}
	if rep.Kind != DropByChurn || rep.DroppedBy != departed {
		t.Fatalf("drop cause: kind=%v by=%s, want churn drop by %s",
			rep.Kind, rep.DroppedBy.Short(), departed.Short())
	}
	if s.Counters.ChurnDrops != 1 {
		t.Errorf("ChurnDrops = %d, want 1", s.Counters.ChurnDrops)
	}
	// The source stewarded the message and still judges the silent hop;
	// with healthy, well-probed links the departed node takes the blame.
	if len(rep.Verdicts) == 0 {
		t.Fatal("no verdicts for a churn drop")
	}
	if rep.Verdicts[0].Judged != departed {
		t.Errorf("first verdict judges %s, want %s",
			rep.Verdicts[0].Judged.Short(), departed.Short())
	}
	if rep.Culprit == departed {
		// The culprit departed: no signed chain can exist, and that must
		// be reported as a degraded outcome, not silence or a panic.
		if rep.Chain != nil {
			t.Error("chain assembled with a departed culprit")
		}
		if !rep.ChainUnavailable {
			t.Error("ChainUnavailable not set for a departed culprit")
		}
		if s.Counters.ChainsUnavailable == 0 {
			t.Error("ChainsUnavailable counter not incremented")
		}
	}
}

func TestSendMessageStewardDepartsBeforeVerdict(t *testing.T) {
	t.Parallel()
	s := churnTestSystem(t)
	src, dst, route := findMultiHopPair(t, s, 2)

	// The culprit is the first intermediate; the accusing steward (the
	// source itself) departs while the message is still in flight, so by
	// diagnosis time the only possible accuser cannot sign.
	culprit := route[1]
	markDropper(t, s, culprit)
	scheduleDeparture(t, s, src, 500*time.Millisecond)

	rep, err := s.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("message delivered through a dropper")
	}
	if rep.Kind != DropByNode || rep.DroppedBy != culprit {
		t.Fatalf("drop cause: %+v", rep)
	}
	if rep.Culprit != culprit {
		t.Fatalf("culprit = %s, want %s", rep.Culprit.Short(), culprit.Short())
	}
	// Every chain link needs the departed source as accuser: the verdict
	// record survives, the signed chain is reported unavailable.
	if rep.Chain != nil {
		t.Error("chain assembled with a departed accuser")
	}
	if !rep.ChainUnavailable {
		t.Error("ChainUnavailable not set for a departed accuser")
	}
}

func TestSendMessageMidChainStewardDepartsTruncatesChain(t *testing.T) {
	t.Parallel()
	s := churnTestSystem(t)
	src, dst, route := findMultiHopPair(t, s, 2)

	// An acknowledgment drop makes every steward judge its next hop, so
	// even a 2-hop route carries a 2-link chain. Freeze the archive (all
	// pre-send probes say "up"), kill the first-hop link after the
	// forward legs, and crash the source right behind it: the chain's
	// first link (src accuses route[1]) is unsignable, but the surviving
	// suffix — route[1] accusing the last hop — still verifies.
	culprit := route[len(route)-1]
	s.SuppressProbes(true)
	path0 := pathBetween(t, s, route[0], route[1])
	var forwardSpan time.Duration
	for i := 0; i+1 < len(route); i++ {
		forwardSpan += s.Net.Latency(pathBetween(t, s, route[i], route[i+1]))
	}
	err := s.Sim.ScheduleAfter(forwardSpan+time.Millisecond, func() {
		if err := s.Net.SetLinkDown(path0[0], true); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	scheduleDeparture(t, s, src, forwardSpan+2*time.Millisecond)

	rep, err := s.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered || rep.AckReceived {
		t.Fatalf("want delivered-but-unacked, got %+v", rep)
	}
	if rep.Kind != DropAckByLink {
		t.Fatalf("drop cause: kind=%v, want ack drop", rep.Kind)
	}
	if len(rep.Verdicts) < 2 {
		t.Fatalf("only %d verdicts; need 2+ for a truncatable chain", len(rep.Verdicts))
	}
	if rep.Culprit != culprit {
		t.Fatalf("culprit = %s, want %s", rep.Culprit.Short(), culprit.Short())
	}
	if !rep.ChainUnavailable {
		t.Error("truncated chain not flagged as degraded")
	}
	if rep.Chain == nil {
		t.Fatal("no chain despite a surviving accuser/judged suffix")
	}
	if err := rep.Chain.Verify(s.KeyDir(), s.Config.Blame.GuiltyThreshold); err != nil {
		t.Errorf("truncated chain does not verify: %v", err)
	}
	if rep.Chain.Culprit() != culprit {
		t.Errorf("chain culprit = %s", rep.Chain.Culprit().Short())
	}
}

func TestChurnUnderTrafficEveryRouteShape(t *testing.T) {
	t.Parallel()
	s := churnTestSystem(t)

	// Exercise self-delivery, direct routes, and multi-hop routes while
	// nodes leave and join between (and during) sends. Nothing may
	// panic, and every report must be internally consistent.
	shapes := map[int]bool{}
	sends := 0
	for round := 0; round < 6 && s.Size() > 6; round++ {
		// Depart a node that is not the src/dst we are about to use.
		members := s.AliveIDs()
		victim := members[len(members)-1]
		src, dst := members[0], members[len(members)/2]
		if victim == src || victim == dst {
			victim = members[len(members)-2]
		}
		scheduleDeparture(t, s, victim, 500*time.Millisecond)

		for _, pair := range [][2]id.ID{{src, src}, {src, dst}, {dst, src}} {
			rep, err := s.SendMessage(pair[0], pair[1])
			if err != nil {
				t.Fatalf("round %d send %s->%s: %v",
					round, pair[0].Short(), pair[1].Short(), err)
			}
			sends++
			shapes[len(rep.Route)] = true
			if rep.Delivered && rep.Kind != DropNone && rep.Kind != DropAckByLink {
				t.Fatalf("delivered report with drop kind %v", rep.Kind)
			}
			if rep.Kind == DropByChurn && rep.DroppedBy == (id.ID{}) {
				t.Fatal("churn drop without a dropped-by identity")
			}
		}
		s.Run(time.Minute)

		// A newcomer joins at the departed node's old attachment point.
		if _, err := s.JoinNode(s.Topo.EndHosts()[0]); err != nil {
			t.Fatalf("round %d join: %v", round, err)
		}
		s.Run(time.Minute)
	}
	if sends == 0 {
		t.Skip("no sends executed")
	}
	if !shapes[1] {
		t.Error("self-delivery shape never exercised")
	}
	// After all churn, every survivor's routing state is consistent:
	// secure tables are valid and trees cover exactly the live peers.
	for i := uint32(0); i < uint32(s.Size()); i++ {
		nid := s.NodeID(i)
		if err := s.Overlay.ValidateSecure(i); err != nil {
			t.Errorf("node %s secure table invalid after churn: %v", nid.Short(), err)
		}
		tree, err := s.Tree(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, leaf := range tree.Leaves {
			if _, ok := s.Overlay.IndexOf(leaf.Node); !ok {
				t.Fatalf("node %s probes departed peer %s", nid.Short(), leaf.Node.Short())
			}
		}
	}
}
