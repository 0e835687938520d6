package core

import (
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/id"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
	"concilium/internal/topology"
	"concilium/internal/trace"
)

// member returns nid's ring position, failing the test if it has none.
func member(t *testing.T, cs *CompactSystem, nid id.ID) uint32 {
	t.Helper()
	i, ok := cs.Overlay.IndexOf(nid)
	if !ok {
		t.Fatalf("%s is not a member", nid.Short())
	}
	return i
}

// pathBetween returns the IP path from member from to its routing peer to.
func pathBetween(t *testing.T, cs *CompactSystem, from, to id.ID) []topology.LinkID {
	t.Helper()
	path, err := cs.PathToPeer(member(t, cs, from), to)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// markDropper makes nid drop every message it should forward.
func markDropper(t *testing.T, cs *CompactSystem, nid id.ID) {
	t.Helper()
	if err := cs.SetBehavior(nid, Behavior{DropsMessages: true}); err != nil {
		t.Fatal(err)
	}
}

func TestSystemConfigValidate(t *testing.T) {
	t.Parallel()
	if err := DefaultSystemConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*SystemConfig){
		func(c *SystemConfig) { c.OverlayFraction = 0 },
		func(c *SystemConfig) { c.OverlayFraction = 1.5 },
		func(c *SystemConfig) { c.Blame.ProbeAccuracy = 2 },
		func(c *SystemConfig) { c.Window.W = 0 },
		func(c *SystemConfig) { c.MaxProbeTime = 0 },
		func(c *SystemConfig) { c.Failures.DownFraction = -1 },
		func(c *SystemConfig) { c.MaliciousFraction = 1 },
		func(c *SystemConfig) { c.ArchiveRetention = -time.Second },
		func(c *SystemConfig) { c.Topology.TransitDomains = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultSystemConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestBuildSystemDeterministic(t *testing.T) {
	t.Parallel()
	cfg := DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	s1, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(7, 8)))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(7, 8)))
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := s1.AliveIDs(), s2.AliveIDs()
	if len(o1) != len(o2) {
		t.Fatal("different node counts")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("node identities differ under same seed")
		}
	}
	if s1.CanonicalHash() != s2.CanonicalHash() {
		t.Fatal("canonical snapshots differ under same seed")
	}
}

func TestBuildSystemStructure(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, nil)
	if s.Size() < 4 {
		t.Fatalf("only %d nodes", s.Size())
	}
	for i := uint32(0); i < uint32(s.Size()); i++ {
		nid := s.NodeID(i)
		tree, err := s.Tree(i)
		if err != nil {
			t.Fatalf("node %s: %v", nid.Short(), err)
		}
		// Trees must cover every routing peer (all hosts are reachable
		// in a connected topology).
		peers := s.Overlay.AppendRoutingPeers(i, nil)
		if len(tree.Leaves) != len(peers) {
			t.Errorf("node %s: %d leaves for %d peers", nid.Short(), len(tree.Leaves), len(peers))
		}
		// Certificates verify against the CA.
		cert := s.Cert(i)
		if cert.NodeID != nid {
			t.Errorf("certificate identity mismatch for %s", nid.Short())
		}
		if err := sigcrypto.VerifyCertificate(s.CA.PublicKey(), &cert); err != nil {
			t.Errorf("certificate of %s: %v", nid.Short(), err)
		}
	}
	keys := s.KeyDir()
	if _, ok := keys(s.NodeID(0)); !ok {
		t.Error("key directory missing member")
	}
	if _, ok := keys(id.Zero); ok {
		t.Error("key directory invented a member")
	}
	if paths, err := s.OverlayPaths(); err != nil || len(paths) == 0 {
		t.Errorf("overlay paths: %d, %v", len(paths), err)
	}
}

func TestBuildSystemMarksMalicious(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, func(c *SystemConfig) { c.MaliciousFraction = 0.25 })
	var bad int
	for i := uint32(0); i < uint32(s.Size()); i++ {
		if s.Behavior(i).DropsMessages {
			bad++
		}
	}
	want := int(0.25 * float64(s.Size()))
	if bad != want {
		t.Errorf("malicious nodes = %d, want %d", bad, want)
	}
}

func TestSendMessageCleanNetworkDelivers(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, nil)
	members := s.AliveIDs()
	src, dst := members[0], members[len(members)-1]
	rep, err := s.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered || !rep.AckReceived {
		t.Fatalf("clean delivery failed: %+v", rep)
	}
	if rep.Kind != DropNone || len(rep.Verdicts) != 0 {
		t.Errorf("clean delivery produced verdicts: %+v", rep)
	}
}

func TestSendMessageSelfDelivery(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, nil)
	first := s.NodeID(0)
	rep, err := s.SendMessage(first, first)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered || len(rep.Route) != 1 {
		t.Errorf("self delivery: %+v", rep)
	}
	if _, err := s.SendMessage(id.Zero, first); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := s.SendMessage(first, id.Zero); err == nil {
		t.Error("unknown destination accepted")
	}
}

// findMultiHopPair returns a src/dst whose secure route has at least
// minHops overlay hops.
func findMultiHopPair(t *testing.T, s *CompactSystem, minHops int) (id.ID, id.ID, []id.ID) {
	t.Helper()
	members := s.AliveIDs()
	for _, src := range members {
		for _, dst := range members {
			if src == dst {
				continue
			}
			idx, err := s.Overlay.AppendRouteSecure(member(t, s, src), dst, 0, nil)
			if err != nil || len(idx) < minHops+1 {
				continue
			}
			route := make([]id.ID, len(idx))
			for h, i := range idx {
				route[h] = s.NodeID(i)
			}
			return src, dst, route
		}
	}
	t.Skip("no multi-hop route in this small overlay")
	return id.ID{}, id.ID{}, nil
}

func TestSendMessageDropperBlamedWithEvidence(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, nil)
	src, dst, route := findMultiHopPair(t, s, 2)

	// Make the first intermediate hop a dropper, then saturate the
	// archive with truthful probes so the blame engine has evidence.
	dropper := route[1]
	markDropper(t, s, dropper)
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	s.Run(3 * time.Minute)

	rep, err := s.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("message delivered through a dropper")
	}
	if rep.Kind != DropByNode || rep.DroppedBy != dropper {
		t.Fatalf("drop cause: %+v", rep)
	}
	if rep.NetworkBlamed {
		t.Fatal("network blamed for a node drop on healthy links")
	}
	if rep.Culprit != dropper {
		t.Errorf("culprit = %s, want dropper %s", rep.Culprit.Short(), dropper.Short())
	}
	if rep.Chain == nil {
		t.Fatal("no accusation chain assembled")
	}
	if err := rep.Chain.Verify(s.KeyDir(), s.Config.Blame.GuiltyThreshold); err != nil {
		t.Errorf("accusation chain does not verify: %v", err)
	}
	if rep.Chain.Culprit() != dropper {
		t.Errorf("chain culprit = %s", rep.Chain.Culprit().Short())
	}
}

func TestSendMessageLinkFailureBlamesNetwork(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, nil)
	src, dst, route := findMultiHopPair(t, s, 2)

	// Fail the first link of the first hop's path and give the archive
	// perfect evidence of it.
	path := pathBetween(t, s, route[0], route[1])
	if err := s.Net.SetLinkDown(path[0], true); err != nil {
		t.Fatal(err)
	}
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	s.Run(3 * time.Minute)

	rep, err := s.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered {
		t.Fatal("message crossed a down link")
	}
	if rep.Kind != DropByLink || rep.BrokenLink != path[0] {
		t.Fatalf("drop cause: kind=%v link=%d want %d", rep.Kind, rep.BrokenLink, path[0])
	}
	if !rep.NetworkBlamed {
		t.Errorf("network not blamed; culprit=%s verdicts=%+v",
			rep.Culprit.Short(), rep.Verdicts)
	}
	if rep.Chain != nil {
		t.Error("accusation chain built for a network fault")
	}
}

func TestStartProbingPopulatesArchive(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, func(c *SystemConfig) { c.MaxProbeTime = 30 * time.Second })
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	if err := s.StartProbing(); err == nil {
		t.Error("double StartProbing accepted")
	}
	s.Run(2 * time.Minute)
	if s.Archive.Size() == 0 {
		t.Fatal("no probe records after 2 minutes")
	}
}

func TestArchiveRetentionBoundsMemory(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, func(c *SystemConfig) {
		c.MaxProbeTime = 20 * time.Second
		c.ArchiveRetention = time.Minute
	})
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	s.Run(2 * time.Minute)
	sizeAt2 := s.Archive.Size()
	s.Run(8 * time.Minute)
	sizeAt10 := s.Archive.Size()
	if sizeAt10 > 3*sizeAt2 {
		t.Errorf("archive grew unbounded: %d at 2min, %d at 10min", sizeAt2, sizeAt10)
	}
}

func TestStartFailuresHoldsDownFraction(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, nil)
	if err := s.StartFailures(); err != nil {
		t.Fatal(err)
	}
	if s.Injector.Target() <= 0 {
		t.Skip("test topology too small for a nonzero failure target")
	}
	s.Run(30 * time.Minute)
	if got := s.Net.DownCount(); got != s.Injector.Target() {
		t.Errorf("down links = %d, target %d", got, s.Injector.Target())
	}
}

func TestCollusionFilterAdaptsToJudgment(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, func(c *SystemConfig) { c.MaliciousFraction = 0.3 })
	var liar, honest id.ID
	for i := uint32(0); i < uint32(s.Size()); i++ {
		if s.Behavior(i).InvertsProbes && liar == (id.ID{}) {
			liar = s.NodeID(i)
		}
		if s.Behavior(i).Honest() && honest == (id.ID{}) {
			honest = s.NodeID(i)
		}
	}
	if liar == (id.ID{}) || honest == (id.ID{}) {
		t.Fatal("missing roles")
	}
	// A truthful "down" record from a liar flips to "up" when an honest
	// node is judged (framing) and stays "down" when a colluder is
	// judged (cover).
	rec := tomography.NewProbeRecord(0, s.ProberHandle(liar), false)
	out, keep := s.collusionFilter(honest, s.ProberHandle(honest), rec)
	if !keep || !out.Up() {
		t.Errorf("judging honest: up=%v keep=%v, want up=true", out.Up(), keep)
	}
	out, keep = s.collusionFilter(liar, s.ProberHandle(liar), rec)
	if !keep || out.Up() {
		t.Errorf("judging colluder: up=%v keep=%v, want up=false", out.Up(), keep)
	}
	// Honest probers' records pass through untouched.
	rec = tomography.NewProbeRecord(0, s.ProberHandle(honest), false)
	out, keep = s.collusionFilter(honest, s.ProberHandle(honest), rec)
	if !keep || out.Up() {
		t.Error("honest record altered")
	}
}

func TestSignedSnapshotModePopulatesArchive(t *testing.T) {
	t.Parallel()
	s := buildTestCompactSystem(t, func(c *SystemConfig) {
		c.SignedSnapshots = true
		c.MaxProbeTime = 30 * time.Second
	})
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	s.Run(2 * time.Minute)
	if s.Archive.Size() == 0 {
		t.Fatal("signed-snapshot mode archived nothing")
	}
	// Diagnosis still works end to end through the signed pipeline.
	src, dst, route := findMultiHopPair(t, s, 2)
	dropper := route[1]
	markDropper(t, s, dropper)
	s.Run(2 * time.Minute)
	rep, err := s.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Culprit != dropper {
		t.Errorf("culprit = %s, want %s", rep.Culprit.Short(), dropper.Short())
	}
}

func TestSendMessageAckDropBlamesNetwork(t *testing.T) {
	t.Parallel()
	// Slow links so the round trip takes real virtual time, then fail a
	// link between the message leg and the acknowledgment leg.
	s := buildTestCompactSystem(t, func(c *SystemConfig) { c.HopLatency = time.Second })
	src, dst, route := findMultiHopPair(t, s, 2)
	path := pathBetween(t, s, route[0], route[1])
	// Probes see healthy links before the send; after the forward legs
	// complete, the first-hop link dies, eating the ack on its way back.
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	s.Run(3 * time.Minute)
	var forwardSpan time.Duration
	cur := route[0]
	for _, hop := range route[1:] {
		forwardSpan += s.Net.Latency(pathBetween(t, s, cur, hop))
		cur = hop
	}
	err := s.Sim.ScheduleAfter(forwardSpan+time.Millisecond, func() {
		if err := s.Net.SetLinkDown(path[0], true); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Delivered {
		t.Fatalf("message leg failed unexpectedly: %+v", rep)
	}
	if rep.AckReceived {
		t.Fatal("ack survived a link that died mid-flight")
	}
	if rep.Kind != DropAckByLink || rep.BrokenLink != path[0] {
		t.Fatalf("drop cause: kind=%v link=%d want ack-drop on %d",
			rep.Kind, rep.BrokenLink, path[0])
	}
	// The evidence window centers on the send time, when the link was
	// still up and probed up — so stewards see a good path and, lacking
	// exculpatory probes, verdicts fall where the thresholding puts
	// them. What matters structurally: diagnosis ran for every steward.
	if len(rep.Verdicts) == 0 {
		t.Error("no verdicts issued for an unacknowledged message")
	}
}

func TestSystemTracing(t *testing.T) {
	t.Parallel()
	counter := trace.NewCounter()
	ring, err := trace.NewRing(256)
	if err != nil {
		t.Fatal(err)
	}
	s := buildTestCompactSystem(t, func(c *SystemConfig) {
		c.Tracer = trace.Multi(counter, ring)
		c.MaxProbeTime = 30 * time.Second
	})
	if err := s.StartFailures(); err != nil {
		t.Fatal(err)
	}
	if err := s.StartProbing(); err != nil {
		t.Fatal(err)
	}
	s.Run(3 * time.Minute)
	if counter.Count(trace.KindProbe) == 0 {
		t.Error("no probe events traced")
	}
	// Drive one diagnosed drop and check the full event trail.
	src, dst, route := findMultiHopPair(t, s, 2)
	dropper := route[1]
	markDropper(t, s, dropper)
	rep, err := s.SendMessage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if counter.Count(trace.KindMessageSent) == 0 {
		t.Error("message-sent not traced")
	}
	if counter.Count(trace.KindMessageDropped) == 0 {
		t.Error("message-dropped not traced")
	}
	if counter.Count(trace.KindVerdict) == 0 {
		t.Error("verdicts not traced")
	}
	if rep.Chain != nil && counter.Count(trace.KindAccusation) == 0 {
		t.Error("accusation not traced")
	}
	// Failure injector churn shows up as link events (if any links
	// were scheduled for repair in the window, both kinds appear over
	// a longer run; at minimum the initial failures are traced).
	if counter.Count(trace.KindLinkFailed) == 0 && s.Injector.Target() > 0 {
		t.Error("link failures not traced")
	}
	// The ring kept renderable events.
	for _, e := range ring.Events()[:min(3, len(ring.Events()))] {
		if e.String() == "" {
			t.Error("unrenderable event")
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
