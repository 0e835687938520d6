package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// The traffic plane's golden lock: at fixed seeds, identical traffic —
// including interleaved and mid-flight churn — must reproduce, bit for
// bit, the DeliveryReports, archives, counters and verdict
// windows pinned in the digests below (golden_test.go). The constants
// are the outputs of the pointer-per-node plane this one replaced, which
// the compact plane matched report for report; any divergence is a
// semantic change, not noise, since every run is deterministic.

// equivSystemConfig returns the traffic-equivalence deployment at one
// of two population scales (~48 and ~256 overlay nodes).
func equivSystemConfig(medium bool) SystemConfig {
	topo := topology.TestConfig()
	if medium {
		topo = topology.Config{
			TransitDomains:          3,
			RoutersPerTransitDomain: 8,
			TransitChordsPerRouter:  1,
			InterDomainLinks:        2,
			StubsPerTransitRouter:   3,
			MeanRoutersPerStub:      6,
			StubChordFraction:       0.3,
			StubMultihomeFraction:   0.2,
			HostsPerStubRouter:      1.2,
		}
	}
	return SystemConfig{
		Topology:          topo,
		OverlayFraction:   0.5,
		Blame:             DefaultBlameConfig(),
		Window:            DefaultWindowConfig(),
		MaxProbeTime:      2 * time.Minute,
		Failures:          netsim.DefaultFailureConfig(),
		MaliciousFraction: 0.1,
	}
}

// buildEquiv builds the golden-test deployment at the given seed.
func buildEquiv(t *testing.T, cfg SystemConfig, seed uint64) *CompactSystem {
	t.Helper()
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(seed, seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// trafficGolden pins the digest of each runTrafficEquivalence run,
// keyed by subtest name.
var trafficGolden = map[string]uint64{
	"seed1-n48":         0x3e15dfe6c167b236,
	"seed1-n48-churn":   0xa53abe5079f7ea64,
	"seed1-n256":        0x6b0e35489bcf3d0e,
	"seed1-n256-churn":  0x804be877d49f5f4c,
	"seed7-n48":         0x40ba441f109ca7bb,
	"seed7-n48-churn":   0xbf0c3570846d1468,
	"seed7-n256":        0x926fecdbaeeb1e69,
	"seed7-n256-churn":  0x321130f30917512c,
	"seed42-n48":        0xf891c38012f289f0,
	"seed42-n48-churn":  0x06071e9d545ad990,
	"seed42-n256":       0x4c32b22b047dc5fe,
	"seed42-n256-churn": 0xeb57f4fbfc50a483,
}

// runTrafficEquivalence drives seeded traffic (and optionally a churn
// schedule, with both scheduled and mid-flight events) and checks the
// digest of everything it observes against the pinned one.
func runTrafficEquivalence(t *testing.T, seed uint64, medium, churn bool) {
	cs := buildEquiv(t, equivSystemConfig(medium), seed)
	d := newDigest()
	if err := cs.StartFailures(); err != nil {
		t.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(5 * time.Minute)

	hosts := cs.Topo.EndHosts()
	pick := rand.New(rand.NewPCG(seed*3+1, 5))
	messages := 60
	if medium {
		messages = 30
	}
	members := cs.AliveIDs()
	for step := 0; step < messages; step++ {
		if churn && step%10 == 4 && len(members) > 8 {
			// Mid-flight departure: scheduled a hair into the next send's
			// first latency advance, so the membership change races the
			// message.
			victim := members[(step*13)%(len(members)-1)+1]
			var failErr error
			if err := cs.Sim.ScheduleAfter(time.Millisecond, func() { failErr = cs.FailNode(victim) }); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if failErr != nil {
					t.Errorf("mid-flight FailNode: %v", failErr)
				}
			}()
		}
		if churn && step%10 == 8 {
			joined, err := cs.JoinNode(hosts[(step*37)%len(hosts)])
			if err != nil {
				t.Fatalf("step %d: join: %v", step, err)
			}
			d.id(joined)
			members = cs.AliveIDs()
		}
		a, b := pick.IntN(len(members)), pick.IntN(len(members))
		if a == b {
			continue
		}
		rep, err := cs.SendMessage(members[a], members[b])
		members = cs.AliveIDs()
		if err != nil {
			d.str(err.Error())
			continue
		}
		d.report(rep)
		// Pacing between messages, as the sim loop does.
		cs.Run(2 * time.Second)
	}

	d.counters(cs.Counters)
	d.archive(cs.Archive, cs, cs.Topo.NumLinks())
	for _, nid := range cs.AliveIDs() {
		d.id(nid)
		d.u64(uint64(cs.GuiltyCount(nid)))
	}
	name := t.Name()[strings.LastIndexByte(t.Name(), '/')+1:]
	requireGolden(t, name, d.sum(), trafficGolden[name])
}

func TestCompactTrafficEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, medium := range []bool{false, true} {
			size := "n48"
			if medium {
				size = "n256"
			}
			t.Run(fmt.Sprintf("seed%d-%s", seed, size), func(t *testing.T) {
				runTrafficEquivalence(t, seed, medium, false)
			})
			t.Run(fmt.Sprintf("seed%d-%s-churn", seed, size), func(t *testing.T) {
				runTrafficEquivalence(t, seed, medium, true)
			})
		}
	}
}

// TestCompactSignedSnapshotEquivalence runs the full §3.2 signed
// pipeline and checks every member's leaf mean spacing and the archive
// contents against the pinned digest, so it pins
// Compact.LeafMeanSpacing's reconstruction of the leaf-set geometry (the
// eclipse detector's input) along with the signing and admission path.
func TestCompactSignedSnapshotEquivalence(t *testing.T) {
	cfg := equivSystemConfig(false)
	cfg.SignedSnapshots = true
	cs := buildEquiv(t, cfg, 7)
	d := newDigest()
	for _, nid := range cs.AliveIDs() {
		i, _ := cs.Overlay.IndexOf(nid)
		spacing, _ := cs.Overlay.LeafMeanSpacing(i)
		d.u64(math.Float64bits(spacing))
	}
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(10 * time.Minute)
	if cs.Archive.Size() == 0 {
		t.Fatal("signed probing recorded nothing")
	}
	d.archive(cs.Archive, cs, cs.Topo.NumLinks())
	requireGolden(t, "signed", d.sum(), signedGolden)
}

// signedGolden pins TestCompactSignedSnapshotEquivalence's digest:
// every member's leaf mean spacing, then the archive's contents.
const signedGolden = uint64(0xb27be4a0a630b9c0)

// BenchmarkCompactSendMessageWarm measures the compact delivered-path
// cost on a warm system — the fig13 hot loop in isolation.
func BenchmarkCompactSendMessageWarm(b *testing.B) {
	cfg := SystemConfig{
		Topology:        topology.TestConfig(),
		OverlayFraction: 0.5,
		Blame:           DefaultBlameConfig(),
		Window:          DefaultWindowConfig(),
		MaxProbeTime:    2 * time.Minute,
		Failures:        netsim.DefaultFailureConfig(),
	}
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(7, 11)))
	if err != nil {
		b.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		b.Fatal(err)
	}
	cs.Run(10 * time.Minute)
	alive := cs.AliveIDs()
	src, dst := alive[0], alive[len(alive)/2]
	if _, err := cs.SendMessage(src, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.SendMessage(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
