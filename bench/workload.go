package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"concilium/internal/core"
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/sigcrypto"
	"concilium/internal/topology"
)

// spec is one benchmark workload. Everything a run does follows from
// the spec and the seed.
type spec struct {
	Name string
	Why  string

	N            int     // target overlay size (the sizing rule lands near it)
	Malicious    float64 // share of nodes that drop messages and lie in probes
	DownFraction float64 // share of overlay-path links down at any moment; 0 = no injector
	Signed       bool    // every probe sweep signs, every ingest verifies (§3.2)
	DHT          bool    // publish every chain, fetch after every 4th publish
	ChurnEvery   int     // one FailNode + one JoinNode after every k-th message; 0 = none

	// Pairs is the size of the fixed set of ordered (src,dst) pairs a
	// pass picks from. It bounds the set of trees the traffic touches,
	// which matters where only a sample of the members probes; 0 draws
	// any two pool members per message, for the overlays small enough
	// that every member probes and so every tree exists.
	Pairs int

	// Block is the number of messages timed as one unit; msgs_per_s is
	// the median over blocks. The first PrefixBlocks blocks are the
	// fixed prefix: a run always completes it, its simulated statistics
	// repeat exactly for a seed, and the metrics that are counts are
	// taken over it, so they do not depend on how fast the machine is.
	Block        int
	PrefixBlocks int

	// Setups is how often a run sets the deployment up; setup_s is the
	// median, and a short set-up needs more of them to be steady. The
	// pass runs on the last one.
	Setups int
}

func (w spec) prefix() int { return w.Block * w.PrefixBlocks }

// Sizes are set by the driver's budget, not by the frontier: a run is
// three set-ups plus the timed pass and must stay near 30 s, so the
// largest overlay is N≈20k (set-up ≈5 s), not the N=100k of fig 13.
// Prefixes are about a third of what this box sends in the driver's 15 s.
var workloads = []spec{
	{
		Name: "deliver-n20k", N: 20000, Pairs: 256, Block: 1000, PrefixBlocks: 30, Setups: 3,
		Why: "No droppers, no link failures: overlay routing, latency advance and probe sweeps do all the work; blame, signing and DHT none.",
	},
	{
		Name: "diagnose-n1k", N: 1000, Malicious: 0.2, DownFraction: 0.005, DHT: true, Block: 250, PrefixBlocks: 32, Setups: 7,
		Why: "20% droppers plus link failures: ~half the sends run diagnosis, so blame, archive scans, accusation signing and DHT dominate.",
	},
	{
		Name: "churn-n10k", N: 10000, Malicious: 0.1, ChurnEvery: 20, Pairs: 256, Block: 40, PrefixBlocks: 25, Setups: 3,
		Why: "One departure and one join per 20 messages: overlay repair, tree-cache invalidation and BFS rebuild dominate; the deliver path run cold.",
	},
	{
		Name: "signed-n1k", N: 1000, Malicious: 0.1, Signed: true, DHT: true, Block: 250, PrefixBlocks: 24, Setups: 5,
		Why: "Signed snapshots: every sweep signs and every ingest verifies, so sigcrypto does most of the work through the event heap.",
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

const (
	probeSample = 1024 // probers started; they are the pool endpoints come from
	coldSends   = 256  // cold-pass messages when there is no fixed pair set
	warmUp      = 5 * time.Minute
	retention   = 5 * time.Minute
	pace        = 100 * time.Millisecond // simulated time between sends
	fetchEvery  = 4                      // one Fetch per this many publishes

	// repoLifetime is how many messages an accusation repository
	// serves before the harness replaces it with an empty one, as if
	// accusations expired after about five simulated minutes. Without
	// it every Fetch would grow with the length of the run, and a
	// time-bounded pass would measure a different thing the further a
	// faster program got.
	repoLifetime = 2000

	// deploymentSeed builds the deployment under test: topology,
	// identifiers, keys, who is malicious. It is fixed, like a fixed
	// data set; -seed draws the traffic (pairs, message order, churn
	// victims, join hosts). Deployments of different seeds differ by
	// tens of percent in how many routes cross a dropper, which is a
	// property of the input the driver's spread across seeds would
	// charge to the program.
	deploymentSeed = 20070625
	systemStream   = 0x636f6e63696c6975 // PCG stream of the system under test
	harnessStream  = 0x62656e6368686172 // PCG stream of the harness's own picks
)

// scaleTopology is the sizing rule of cmd/concilium-bench's scale
// figure: a fixed transit core whose stub count grows so that about 2n
// end hosts exist and an overlay fraction of 0.5 lands near n nodes.
func scaleTopology(n int) topology.Config {
	const hostsPerSPT = 4 * 10 * 6
	spt := (2*n + hostsPerSPT - 1) / hostsPerSPT
	if spt < 1 {
		spt = 1
	}
	return topology.Config{
		TransitDomains:          4,
		RoutersPerTransitDomain: 10,
		TransitChordsPerRouter:  1,
		InterDomainLinks:        2,
		StubsPerTransitRouter:   spt,
		MeanRoutersPerStub:      6,
		StubChordFraction:       0.2,
		StubMultihomeFraction:   0.1,
		HostsPerStubRouter:      1.0,
	}
}

// system is one set-up deployment plus the harness state a pass needs.
type system struct {
	spec      spec
	cs        *core.CompactSystem
	reg       *metrics.Registry
	sweeps    *metrics.Counter    // core/probe_sweeps, read around every traced call
	repo      *dht.AccusationRepo // nil unless spec.DHT
	pool      []id.ID             // the probing members
	pairs     [][2]id.ID          // empty when spec.Pairs is 0
	endpoints map[id.ID]bool      // members of pairs; churn never fails them
	pick      *rand.Rand
}

// nextPair draws the endpoints of the next message.
func (s *system) nextPair() (src, dst id.ID) {
	if len(s.pairs) > 0 {
		p := s.pairs[s.pick.IntN(len(s.pairs))]
		return p[0], p[1]
	}
	for {
		a, b := s.pool[s.pick.IntN(len(s.pool))], s.pool[s.pick.IntN(len(s.pool))]
		if a != b {
			return a, b
		}
	}
}

// newRepo replaces the accusation repository with an empty one.
func (s *system) newRepo() error {
	store, err := dht.New(s.cs.Overlay.Ring(), dht.DefaultReplicas)
	if err != nil {
		return fmt.Errorf("dht: %w", err)
	}
	store.SetMetrics(s.reg)
	s.repo, err = dht.NewAccusationRepo(store, s.cs.KeyDir(), s.cs.Config.Blame.GuiltyThreshold)
	if err != nil {
		return fmt.Errorf("dht repo: %w", err)
	}
	s.repo.SetMetrics(s.reg)
	return nil
}

// setupTimes are the three phases of one set-up.
type setupTimes struct {
	Build, ProbeWarm, ColdPass time.Duration
}

func (t setupTimes) total() time.Duration { return t.Build + t.ProbeWarm + t.ColdPass }

// setUp builds the deployment, warms its probe archive, draws the
// pairs and sends each once so every tree the pass touches exists.
// seed is the traffic seed; the deployment is always the same.
func setUp(w spec, seed uint64) (*system, setupTimes, error) {
	var st setupTimes
	// The verify cache is process-wide; a repeated set-up at the same
	// seed would otherwise verify nothing.
	sigcrypto.ResetVerifyCache()

	start := time.Now()
	cfg := core.DefaultSystemConfig()
	cfg.Topology = scaleTopology(w.N)
	cfg.OverlayFraction = 0.5
	cfg.ArchiveRetention = retention
	cfg.Workers = 1
	cfg.MaliciousFraction = w.Malicious
	cfg.SignedSnapshots = w.Signed
	cfg.Failures.DownFraction = w.DownFraction
	cfg.Metrics = metrics.NewRegistry()
	cs, err := core.BuildCompactSystem(cfg, rand.New(rand.NewPCG(deploymentSeed, systemStream)))
	if err != nil {
		return nil, st, fmt.Errorf("build: %w", err)
	}
	st.Build = time.Since(start)

	start = time.Now()
	probers, err := cs.StartProbingSample(min(probeSample, cs.Size()))
	if err != nil {
		return nil, st, fmt.Errorf("start probing: %w", err)
	}
	if w.DownFraction > 0 {
		if err := cs.StartFailures(); err != nil {
			return nil, st, fmt.Errorf("start failures: %w", err)
		}
	}
	cs.Run(warmUp)
	st.ProbeWarm = time.Since(start)

	start = time.Now()
	s := &system{
		spec: w, cs: cs, reg: cfg.Metrics, pool: probers,
		sweeps:    cfg.Metrics.Counter("core/probe_sweeps"),
		endpoints: make(map[id.ID]bool),
		pick:      rand.New(rand.NewPCG(seed, harnessStream)),
	}
	if w.DHT {
		if err := s.newRepo(); err != nil {
			return nil, st, err
		}
	}
	cold := make([][2]id.ID, 0, max(w.Pairs, coldSends))
	for len(cold) < cap(cold) {
		a, b := s.nextPair()
		cold = append(cold, [2]id.ID{a, b})
	}
	if w.Pairs > 0 {
		s.pairs = cold
		for _, p := range cold {
			s.endpoints[p[0]], s.endpoints[p[1]] = true, true
		}
	}
	for _, p := range cold {
		if _, err := cs.SendMessage(p[0], p[1]); err != nil {
			return nil, st, fmt.Errorf("cold pass: %w", err)
		}
		cs.Run(pace)
	}
	st.ColdPass = time.Since(start)
	return s, st, nil
}
