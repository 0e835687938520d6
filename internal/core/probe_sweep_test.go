package core

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"concilium/internal/metrics"
	"concilium/internal/topology"
	"concilium/internal/trace"
)

// perLeafRTT is the test-side oracle for core/probe_rtt_ns: on every
// probe event it observes 2·Net.Latency of each leaf path of the
// prober's cached tree, one leaf at a time. The event fires inside the
// sweep, after the sweep consulted the tree, so the cached tree is the
// one the sweep probed.
type perLeafRTT struct {
	cs  *CompactSystem
	rtt *metrics.Histogram
}

func (o *perLeafRTT) Record(e trace.Event) {
	if e.Kind != trace.KindProbe {
		return
	}
	i, ok := o.cs.Overlay.IndexOf(e.Node)
	if !ok {
		panic("probe event from a non-member")
	}
	tree := o.cs.trees[o.cs.Overlay.Slab(i)]
	for l := range tree.Leaves {
		o.rtt.ObserveDuration(2 * o.cs.Net.Latency(tree.Leaves[l].Path))
	}
}

// TestProbeRTTCensusMatchesPerLeaf runs a probing system through
// departures, joins and sends that patch trees, and requires the
// core/probe_rtt_ns histogram the sweeps fill from their trees' RTT
// censuses to equal, bucket for bucket, the one a per-leaf loop over
// the same trees fills.
func TestProbeRTTCensusMatchesPerLeaf(t *testing.T) {
	t.Parallel()
	for _, seed := range []uint64{3, 42} {
		cfg := equivSystemConfig(true)
		cfg.Metrics = metrics.NewRegistry()
		oracle := metrics.NewRegistry()
		tracer := &perLeafRTT{rtt: oracle.MustHistogram("core/probe_rtt_ns", metrics.LatencyBuckets)}
		cfg.Tracer = tracer
		cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(seed, seed+1)))
		if err != nil {
			t.Fatal(err)
		}
		tracer.cs = cs
		if err := cs.StartProbing(); err != nil {
			t.Fatal(err)
		}
		pick := rand.New(rand.NewPCG(seed, 5))
		hosts := cs.Topo.EndHosts()
		cs.Run(3 * time.Minute)
		watch := newTreeCacheWatch(cs)
		for step := 0; step < 12; step++ {
			randomChurnEvent(t, cs, hosts, pick)
			alive := cs.AliveIDs()
			if _, err := cs.SendMessage(alive[pick.IntN(len(alive))], alive[pick.IntN(len(alive))]); err != nil {
				t.Fatal(err)
			}
			watch.observe()
			cs.Run(time.Minute)
			watch.observe()
		}
		if watch.patched == 0 {
			t.Fatal("no tree was patched: the churn did not reach the census")
		}
		got := cfg.Metrics.Snapshot().Histograms["core/probe_rtt_ns"]
		want := oracle.Snapshot().Histograms["core/probe_rtt_ns"]
		if want.Count == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: probe RTTs from the census %+v, per leaf %+v", seed, got, want)
		}
	}
}

// probeSweepSystem builds a probing deployment of about n members over
// a topology sized like the scale figures', with a five-minute
// archive retention, and warms it for warm of simulated time.
func probeSweepSystem(tb testing.TB, n int, signed bool, warm time.Duration) *CompactSystem {
	tb.Helper()
	cfg := equivSystemConfig(false)
	cfg.Topology = topology.Config{
		TransitDomains:          4,
		RoutersPerTransitDomain: 10,
		TransitChordsPerRouter:  1,
		InterDomainLinks:        2,
		StubsPerTransitRouter:   max(1, (2*n+239)/240),
		MeanRoutersPerStub:      6,
		StubChordFraction:       0.2,
		StubMultihomeFraction:   0.1,
		HostsPerStubRouter:      1.0,
	}
	cfg.MaliciousFraction = 0
	cfg.ArchiveRetention = 5 * time.Minute
	cfg.SignedSnapshots = signed
	cfg.Metrics = metrics.NewRegistry()
	cs, err := BuildCompactSystem(cfg, rand.New(rand.NewPCG(11, 12)))
	if err != nil {
		tb.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		tb.Fatal(err)
	}
	cs.Run(warm)
	return cs
}

// TestProbeSweepAllocatesNothing pins a warm unsigned sweep — the
// observation pass, the RTT census, the staged Record and the periodic
// Prune, with its rescheduling — at zero allocations. Warm means two
// retention periods in, when the log's blocks mostly come back from
// each Prune: at about 2,000 members the log still took a new 48 KiB
// block about once in ten thousand sweeps, under AllocsPerRun's
// one-per-run resolution.
func TestProbeSweepAllocatesNothing(t *testing.T) {
	if n := warmSweepAllocs(t, false, 12*time.Minute); n != 0 {
		t.Errorf("a warm unsigned probe sweep allocates %.2f/op, want 0", n)
	}
}

// TestSignedProbeSweepAllocs pins a warm signed sweep's allocations:
// the same observation pass into the same scratch slice, then the
// snapshot, its signing payload and signature, and the verification on
// admission. Fewer is a gain to pin here; more is a regression.
func TestSignedProbeSweepAllocs(t *testing.T) {
	const want = 16
	if n := warmSweepAllocs(t, true, 12*time.Minute); n != want {
		t.Errorf("a warm signed probe sweep allocates %.2f/op, want %d", n, want)
	}
}

// warmSweepAllocs returns the mean allocations of one event-heap step,
// every one a probe sweep, on a warm deployment of about 200 members.
func warmSweepAllocs(t *testing.T, signed bool, warm time.Duration) float64 {
	t.Helper()
	cs := probeSweepSystem(t, 200, signed, warm)
	sweeps := cs.met.probeSweeps.Value()
	n := testing.AllocsPerRun(500, func() { cs.Sim.Step() })
	if cs.met.probeSweeps.Value() <= sweeps {
		t.Fatal("no sweep ran")
	}
	return n
}

// BenchmarkProbeSweep times one probe sweep, event-heap turn included,
// on a warm deployment of about 2,000 members in which every member
// probes: the unsigned sweep the deliver path runs beside its traffic,
// and the signed one that signs a snapshot and verifies it on
// admission. Nothing else is scheduled, so every step is a sweep.
func BenchmarkProbeSweep(b *testing.B) {
	for _, bc := range []struct {
		name   string
		signed bool
		warm   time.Duration
	}{{"unsigned", false, 11 * time.Minute}, {"signed", true, 3 * time.Minute}} {
		b.Run(bc.name, func(b *testing.B) {
			cs := probeSweepSystem(b, 2000, bc.signed, bc.warm)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.Sim.Step()
			}
		})
	}
}
