// Package concilium_test holds the benchmark harness: one testing.B
// benchmark per table and figure in the paper's evaluation (§4), plus
// ablation benchmarks for the design choices DESIGN.md calls out. Each
// benchmark reports the experiment's headline quantities through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the
// paper's results alongside the runtime costs.
package concilium_test

import (
	"crypto/ed25519"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/core"
	"concilium/internal/experiments"
	"concilium/internal/fuzzy"
	"concilium/internal/id"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

func benchRand() *rand.Rand { return rand.New(rand.NewPCG(1001, 1003)) }

// benchWorkerCounts are the pool sizes the parallel-engine benchmarks
// sweep. workers=1 doubles as the serial reference the speedup-x metric
// is computed against.
var benchWorkerCounts = []int{1, 4, 8}

// speedupReporter derives the speedup-x metric across a workers sweep:
// the workers=1 sub-benchmark records its per-op time, and every
// sub-benchmark reports serial-time / own-time. Sub-benchmarks run in
// declaration order, so the serial reference is always measured first.
type speedupReporter struct{ serialNsPerOp float64 }

func (s *speedupReporter) report(b *testing.B, workers int) {
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if perOp <= 0 {
		return
	}
	if workers == 1 {
		s.serialNsPerOp = perOp
	}
	if s.serialNsPerOp > 0 {
		b.ReportMetric(s.serialNsPerOp/perOp, "speedup-x")
	}
}

// BenchmarkFig1Occupancy regenerates Figure 1 — the analytic occupancy
// model against Monte Carlo simulation across overlay sizes — at
// several worker-pool sizes. The Monte Carlo trials dominate the cost
// and fan out across the pool; outputs are identical for every count.
func BenchmarkFig1Occupancy(b *testing.B) {
	var speedup speedupReporter
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.Fig1Config{Ns: []int{128, 512, 1131, 4096, 16384}, Trials: 100, Workers: workers}
			rng := benchRand()
			b.ReportAllocs()
			var worst float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig1(cfg, rng)
				if err != nil {
					b.Fatal(err)
				}
				worst = res.MaxMeanError()
			}
			speedup.report(b, workers)
			b.ReportMetric(worst, "worst-gap-slots")
		})
	}
}

// BenchmarkFig2DensityErrors regenerates Figure 2 — density-test error
// rates without suppression attacks — at several worker-pool sizes. The
// (collusion, γ) grid cells fan out across the pool.
func BenchmarkFig2DensityErrors(b *testing.B) {
	var speedup speedupReporter
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.DefaultFig23Config(false)
			cfg.Workers = workers
			b.ReportAllocs()
			var res *experiments.Fig23Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.Fig23(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			speedup.report(b, workers)
			// c=30% anchor (paper: FP 8.5%, FN 14.8%).
			for i, c := range cfg.Collusions {
				if c == 0.30 {
					b.ReportMetric(res.OptimalRates[i].FalsePositive, "fp-at-c30")
					b.ReportMetric(res.OptimalRates[i].FalseNegative, "fn-at-c30")
				}
			}
		})
	}
}

// BenchmarkFig3Suppression regenerates Figure 3: the suppression-attack
// variant.
func BenchmarkFig3Suppression(b *testing.B) {
	var speedup speedupReporter
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.DefaultFig23Config(true)
			cfg.Workers = workers
			b.ReportAllocs()
			var res *experiments.Fig23Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = experiments.Fig23(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			speedup.report(b, workers)
			for i, c := range cfg.Collusions {
				if c == 0.20 {
					b.ReportMetric(res.OptimalRates[i].FalsePositive, "fp-at-c20")
					b.ReportMetric(res.OptimalRates[i].FalseNegative, "fn-at-c20")
				}
			}
		})
	}
}

// BenchmarkVerifyCached measures the signature-verification LRU against
// uncached Ed25519 verification on a repeated-verifier workload (the
// protocol re-checks the same certificates and ack batches constantly).
func BenchmarkVerifyCached(b *testing.B) {
	var seed [32]byte
	seed[0] = 42
	kp := sigcrypto.KeyPairFromSeed(seed)
	msg := []byte("steward commitment, re-verified on every audit")
	sig := kp.Sign(msg)

	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !ed25519.Verify(kp.Public, msg, sig) {
				b.Fatal("valid signature rejected")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		sigcrypto.ResetVerifyCache()
		defer sigcrypto.ResetVerifyCache()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !sigcrypto.Verify(kp.Public, msg, sig) {
				b.Fatal("valid signature rejected")
			}
		}
		hits, misses, _ := sigcrypto.VerifyCacheStats()
		b.ReportMetric(float64(hits)/float64(max(hits+misses, 1)), "hit-rate")
	})
}

func benchSystemConfig() core.SystemConfig {
	cfg := core.DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = 5 * time.Minute
	return cfg
}

// BenchmarkFig4Coverage regenerates Figure 4: forest link coverage as
// peer trees are incorporated.
func BenchmarkFig4Coverage(b *testing.B) {
	cfg := experiments.Fig4Config{System: benchSystemConfig(), SampleHosts: 15}
	rng := benchRand()
	b.ReportAllocs()
	var own float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		own = res.OwnTreeCoverage()
	}
	b.ReportMetric(own, "own-tree-coverage")
}

// BenchmarkBuildCompactSystem measures deterministic system construction — the
// full topology + identity + routing-table pipeline of
// BuildCompactSystem — at several worker-pool sizes. The routing fills
// fan out across the pool; the canonical snapshot is
// byte-identical for every count (pinned by
// TestCompactBuildWorkerInvariance), so the sweep measures pure engine
// overhead.
func BenchmarkBuildCompactSystem(b *testing.B) {
	var speedup speedupReporter
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := benchSystemConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			var nodes int
			for i := 0; i < b.N; i++ {
				s, err := core.BuildCompactSystem(cfg, benchRand())
				if err != nil {
					b.Fatal(err)
				}
				nodes = s.Size()
			}
			speedup.report(b, workers)
			b.ReportMetric(float64(nodes), "overlay-nodes")
		})
	}
}

// BenchmarkSendMessageWarm measures the steady-state diagnosis hot
// path: one stewarded message on a warm system with probing running and
// scratch arenas grown. The allocs/op figure is the headline — the
// cached routing states and reusable buffers keep the delivered path at
// a couple of allocations (the report and its copied-out route).
func BenchmarkSendMessageWarm(b *testing.B) {
	cfg := benchSystemConfig()
	s, err := core.BuildCompactSystem(cfg, benchRand())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.StartProbing(); err != nil {
		b.Fatal(err)
	}
	s.Run(10 * time.Minute)
	members := s.AliveIDs()
	src, dst := members[0], members[len(members)/2]
	if _, err := s.SendMessage(src, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendMessage(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func fig5Bench(b *testing.B, malicious float64) (pGood, pFaulty float64) {
	b.Helper()
	cfg := experiments.Fig5Config{
		System:          benchSystemConfig(),
		Duration:        40 * time.Minute,
		Warmup:          6 * time.Minute,
		SampleEvents:    25,
		TriplesPerEvent: 25,
		Bins:            20,
	}
	cfg.System.MaliciousFraction = malicious
	rng := benchRand()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		pGood, pFaulty = res.PGood, res.PFaulty
	}
	return pGood, pFaulty
}

// BenchmarkFig5BlamePDF regenerates Figure 5(a): blame distributions
// with faithful probe reporting (paper: innocent guilty 1.8%, faulty
// guilty 93.8% at the 40% threshold).
func BenchmarkFig5BlamePDF(b *testing.B) {
	b.ReportAllocs()
	pGood, pFaulty := fig5Bench(b, 0)
	b.ReportMetric(pGood, "p-good")
	b.ReportMetric(pFaulty, "p-faulty")
}

// BenchmarkFig5BlamePDFCollusion regenerates Figure 5(b): 20% of peers
// invert their probe results (paper: 8.4% / 71.3%).
func BenchmarkFig5BlamePDFCollusion(b *testing.B) {
	b.ReportAllocs()
	pGood, pFaulty := fig5Bench(b, 0.2)
	b.ReportMetric(pGood, "p-good")
	b.ReportMetric(pFaulty, "p-faulty")
}

// BenchmarkFig6AccusationError regenerates Figure 6: accusation-window
// error rates vs m at w=100 (paper: m=6 honest, m=16 collusion for
// sub-1% error).
func BenchmarkFig6AccusationError(b *testing.B) {
	b.ReportAllocs()
	var honestM, colludeM int
	for i := 0; i < b.N; i++ {
		h, err := experiments.Fig6(experiments.DefaultFig6Config(0.018, 0.938))
		if err != nil {
			b.Fatal(err)
		}
		c, err := experiments.Fig6(experiments.DefaultFig6Config(0.084, 0.713))
		if err != nil {
			b.Fatal(err)
		}
		honestM, colludeM = h.MinimalM, c.MinimalM
	}
	b.ReportMetric(float64(honestM), "minimal-m-honest")
	b.ReportMetric(float64(colludeM), "minimal-m-collusion")
}

// BenchmarkTable44Bandwidth regenerates §4.4's bandwidth accounting
// (paper: ~77 entries, ~11.5 KB advert, ~16.7 MB heavyweight probing at
// 100k nodes).
func BenchmarkTable44Bandwidth(b *testing.B) {
	cfg := experiments.DefaultBandwidthConfig()
	b.ReportAllocs()
	var advert, hw float64
	for i := 0; i < b.N; i++ {
		_, reports, err := experiments.Bandwidth(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, rep := range reports {
			if rep.OverlayN == 100000 {
				advert, hw = rep.AdvertBytes, rep.HeavyweightMB
			}
		}
	}
	b.ReportMetric(advert, "advert-bytes-100k")
	b.ReportMetric(hw, "heavyweight-MB-100k")
}

// probers names the ablation archives' probers: handle h is
// probers[h-1].
type probers []id.ID

func (p probers) ProberHandle(nid id.ID) tomography.ProberHandle {
	for i, x := range p {
		if x == nid {
			return tomography.ProberHandle(i + 1)
		}
	}
	return 0
}

func (p probers) ProberID(h tomography.ProberHandle) id.ID {
	if h == 0 || int(h) > len(p) {
		return id.ID{}
	}
	return p[h-1]
}

// unnamed hides one prober's handle: ProberHandle answers zero for it,
// which no record carries, so an engine reading through it cannot tell
// that prober's records from anyone else's.
type unnamed struct {
	probers
	hidden id.ID
}

func (u unnamed) ProberHandle(nid id.ID) tomography.ProberHandle {
	if nid == u.hidden {
		return 0
	}
	return u.probers.ProberHandle(nid)
}

// BenchmarkAblationProbeExclusion measures what §3.4's rule — a node's
// own probes never count toward its blame — buys: without it, a dropper
// that publishes "my links were down" talks its way out of every
// verdict. The engine always applies the rule; the "without" engine
// reads through probers that hide the dropper's handle, so none of its
// records is recognised as its own.
func BenchmarkAblationProbeExclusion(b *testing.B) {
	rng := benchRand()
	dropper := id.Random(rng)
	honest := id.Random(rng)
	path := []topology.LinkID{1, 2, 3}
	names := probers{honest, dropper}
	mkArchive := func() *tomography.Archive {
		arch := tomography.NewArchive(4)
		// Honest prober says all links up; the dropper floods claims
		// that they were down.
		for _, l := range path {
			_ = arch.Record(names.ProberHandle(honest), 0, []tomography.LinkObservation{{Link: l, Up: true}})
		}
		for i := 0; i < 8; i++ {
			for _, l := range path {
				_ = arch.Record(names.ProberHandle(dropper), 1, []tomography.LinkObservation{{Link: l, Up: false}})
			}
		}
		return arch
	}
	b.ReportAllocs()
	var withRule, withoutRule float64
	for i := 0; i < b.N; i++ {
		arch := mkArchive()
		eng, err := core.NewBlameEngine(arch, names, core.DefaultBlameConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.Blame(dropper, path, 0)
		if err != nil {
			b.Fatal(err)
		}
		withRule = res.Blame
		engOff, err := core.NewBlameEngine(arch, unnamed{names, dropper}, core.DefaultBlameConfig())
		if err != nil {
			b.Fatal(err)
		}
		res, err = engOff.Blame(dropper, path, 0)
		if err != nil {
			b.Fatal(err)
		}
		withoutRule = res.Blame
	}
	b.ReportMetric(withRule, "dropper-blame-with-rule")
	b.ReportMetric(withoutRule, "dropper-blame-without-rule")
}

// BenchmarkAblationFuzzyOR compares the paper's fuzzy max-OR across
// links (Eq. 3) with naive averaging: on a long path with one probed-
// down link, averaging dilutes the exculpatory evidence and convicts
// the innocent forwarder.
func BenchmarkAblationFuzzyOR(b *testing.B) {
	rng := benchRand()
	judged := id.Random(rng)
	prober := id.Random(rng)
	const pathLen = 12
	arch := tomography.NewArchive(pathLen)
	path := make([]topology.LinkID, pathLen)
	for i := range path {
		path[i] = topology.LinkID(i)
		_ = arch.Record(1, 0, []tomography.LinkObservation{{Link: path[i], Up: i != 5}})
	}
	eng, err := core.NewBlameEngine(arch, probers{prober}, core.DefaultBlameConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var maxOR, mean float64
	for i := 0; i < b.N; i++ {
		res, err := eng.Blame(judged, path, 0)
		if err != nil {
			b.Fatal(err)
		}
		maxOR = res.Blame
		var sum float64
		for _, lc := range res.Evidence {
			sum += lc.Confidence
		}
		mean = fuzzy.Not(sum / float64(len(res.Evidence)))
	}
	b.ReportMetric(maxOR, "blame-max-or")
	b.ReportMetric(mean, "blame-averaged")
}

// BenchmarkAblationRecursiveRevision measures culprit accuracy with and
// without §3.5's revision on forwarding chains of varying depth: naive
// next-hop blame always convicts the first forwarder, so its accuracy
// is exactly the fraction of drops that happen at depth one, while the
// revised chain walks blame to the true dropper.
func BenchmarkAblationRecursiveRevision(b *testing.B) {
	rng := benchRand()
	arch := tomography.NewArchive(0) // every path unprobed
	eng, err := core.NewBlameEngine(arch, probers{}, core.DefaultBlameConfig())
	if err != nil {
		b.Fatal(err)
	}
	const chainLen = 5 // A -> h1 -> h2 -> h3 -> h4; dropper uniform among h1..h4
	hops := make([]id.ID, chainLen)
	for i := range hops {
		hops[i] = id.Random(rng)
	}
	// Per-hop IP paths, all healthy and unprobed (no exculpatory
	// evidence, the pure-forwarder-fault case).
	paths := make([][]topology.LinkID, chainLen-1)
	for i := range paths {
		paths[i] = []topology.LinkID{topology.LinkID(2*i + 1), topology.LinkID(2*i + 2)}
	}

	b.ReportAllocs()
	var withRevision, naive float64
	for i := 0; i < b.N; i++ {
		dropDepth := 1 + rng.IntN(chainLen-1) // hops[dropDepth] drops
		// Every steward before the drop issues a verdict on its next hop.
		var verdicts []core.Verdict
		for s := 0; s < dropDepth; s++ {
			span := append([]topology.LinkID(nil), paths[s]...)
			if s+1 < len(paths) {
				span = append(span, paths[s+1]...)
			}
			res, err := eng.Blame(hops[s+1], span, 0)
			if err != nil {
				b.Fatal(err)
			}
			verdicts = append(verdicts, core.Verdict{Judged: hops[s+1], Guilty: res.Guilty})
		}
		// Revision: the deepest verdict stands.
		if verdicts[len(verdicts)-1].Judged == hops[dropDepth] {
			withRevision++
		}
		// Naive: the source's own verdict stands.
		if verdicts[0].Judged == hops[dropDepth] {
			naive++
		}
	}
	b.ReportMetric(withRevision/float64(b.N), "culprit-accuracy-revision")
	b.ReportMetric(naive/float64(b.N), "culprit-accuracy-naive")
}

// BenchmarkAblationCommitments measures §3.6's defense: without
// forwarding commitments, a malicious sender can fabricate a verifiable
// accusation against a peer for a message it never sent.
func BenchmarkAblationCommitments(b *testing.B) {
	rng := benchRand()
	accuserID := id.Random(rng)
	victimID := id.Random(rng)
	destID := id.Random(rng)
	accuserKeys := sigcrypto.KeyPairFromSeed(sigcrypto.SeedFromRand(rng))
	victimKeys := sigcrypto.KeyPairFromSeed(sigcrypto.SeedFromRand(rng))

	eng, err := core.NewBlameEngine(tomography.NewArchive(0), probers{}, core.DefaultBlameConfig())
	if err != nil {
		b.Fatal(err)
	}
	keyDir := core.KeyDirectory(func(x id.ID) (ed25519.PublicKey, bool) {
		switch x {
		case accuserID:
			return accuserKeys.Public, true
		case victimID:
			return victimKeys.Public, true
		default:
			return nil, false
		}
	})

	b.ReportAllocs()
	var forgedAccepted, genuineAccepted float64
	for i := 0; i < b.N; i++ {
		res, err := eng.Blame(victimID, []topology.LinkID{1}, 0)
		if err != nil {
			b.Fatal(err)
		}
		// Spurious: the accuser forges the commitment itself.
		forgedCommit := core.NewCommitment(accuserKeys, accuserID, victimID, destID, 7, 0)
		forged, err := core.NewAccusation(accuserKeys, accuserID, res, 7, nil, forgedCommit)
		if err != nil {
			b.Fatal(err)
		}
		if forged.Verify(keyDir, 0.4) == nil {
			forgedAccepted++
		}
		// Genuine: the victim really committed.
		realCommit := core.NewCommitment(victimKeys, accuserID, victimID, destID, 7, 0)
		genuine, err := core.NewAccusation(accuserKeys, accuserID, res, 7, nil, realCommit)
		if err != nil {
			b.Fatal(err)
		}
		if genuine.Verify(keyDir, 0.4) == nil {
			genuineAccepted++
		}
	}
	b.ReportMetric(forgedAccepted/float64(b.N), "forged-accusations-accepted")
	b.ReportMetric(genuineAccepted/float64(b.N), "genuine-accusations-accepted")
}

// BenchmarkAblationDeltaWindow sweeps the evidence window Δ (§3.4, the
// paper uses 60 s): too narrow starves the blame equation of probes and
// convicts innocents behind bad links; too wide admits stale probes
// from before a failure began.
func BenchmarkAblationDeltaWindow(b *testing.B) {
	for _, delta := range []time.Duration{15 * time.Second, time.Minute, 4 * time.Minute} {
		b.Run(delta.String(), func(b *testing.B) {
			cfg := experiments.Fig5Config{
				System:          benchSystemConfig(),
				Duration:        30 * time.Minute,
				Warmup:          6 * time.Minute,
				SampleEvents:    20,
				TriplesPerEvent: 20,
				Bins:            20,
			}
			cfg.System.Blame.Delta = delta
			rng := benchRand()
			var pGood, pFaulty float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Fig5(cfg, rng)
				if err != nil {
					b.Fatal(err)
				}
				pGood, pFaulty = res.PGood, res.PFaulty
			}
			b.ReportMetric(pGood, "p-good")
			b.ReportMetric(pFaulty, "p-faulty")
		})
	}
}

// BenchmarkAblationProbeSharing quantifies §3.7's consolidated probing:
// co-located hosts probing the union of their trees instead of each
// probing its own.
func BenchmarkAblationProbeSharing(b *testing.B) {
	rng := benchRand()
	cfg := benchSystemConfig()
	sys, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	order := sys.AliveIDs()
	treesOf := func(members []id.ID) map[id.ID]*tomography.Tree {
		trees := make(map[id.ID]*tomography.Tree, len(members))
		for _, m := range members {
			i, _ := sys.Overlay.IndexOf(m)
			t, err := sys.Tree(i)
			if err != nil {
				b.Fatal(err)
			}
			trees[m] = t
		}
		return trees
	}
	// Group nodes into collectives of 4 by order (a stand-in for stub
	// co-location).
	var totalFactor float64
	var groups int
	for i := 0; i+4 <= len(order); i += 4 {
		members := order[i : i+4]
		coll, err := tomography.NewCollective(members, treesOf(members))
		if err != nil {
			b.Fatal(err)
		}
		_, _, factor := coll.Savings()
		totalFactor += factor
		groups++
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// The steady-state cost is the Savings computation itself.
		members := order[:4]
		coll, err := tomography.NewCollective(members, treesOf(members))
		if err != nil {
			b.Fatal(err)
		}
		coll.Savings()
	}
	if groups > 0 {
		b.ReportMetric(totalFactor/float64(groups), "mean-probe-amortization")
	}
}

// BenchmarkExtensionCollusionSweep runs the collusion-fraction sweep
// extension at small scale, reporting where the window mechanism stops
// compensating.
func BenchmarkExtensionCollusionSweep(b *testing.B) {
	cfg := experiments.CollusionSweepConfig{
		Fractions: []float64{0, 0.2, 0.4},
		Base: experiments.Fig5Config{
			System:          benchSystemConfig(),
			Duration:        30 * time.Minute,
			Warmup:          6 * time.Minute,
			SampleEvents:    20,
			TriplesPerEvent: 20,
			Bins:            20,
		},
		Window: 100,
		Target: 0.01,
	}
	rng := benchRand()
	b.ReportAllocs()
	var mAt40 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CollusionSweep(cfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		mAt40 = float64(res.Points[len(res.Points)-1].MinimalM)
	}
	b.ReportMetric(mAt40, "minimal-m-at-c40")
}

// BenchmarkExtensionConsensusDefense quantifies the median-consensus
// suppression defense against the standard self-referenced test.
func BenchmarkExtensionConsensusDefense(b *testing.B) {
	scen := core.DensityScenario{N: 1131, Collusion: 0.3, Suppression: true}
	b.ReportAllocs()
	var stdSum, consSum float64
	for i := 0; i < b.N; i++ {
		std, err := core.OptimalGamma(scen, 1.0001, 3, 150)
		if err != nil {
			b.Fatal(err)
		}
		stdSum = std.Sum()
		best := core.DensityErrorRates{FalsePositive: 1, FalseNegative: 1}
		for g := 1.01; g < 3; g += 0.01 {
			r, err := core.ConsensusErrorRates(scen, g)
			if err != nil {
				b.Fatal(err)
			}
			if r.Sum() < best.Sum() {
				best = r
			}
		}
		consSum = best.Sum()
	}
	b.ReportMetric(stdSum, "standard-error-sum-c30")
	b.ReportMetric(consSum, "consensus-error-sum-c30")
}
