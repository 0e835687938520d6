// Package campaign is Concilium's campaign engine: seeded runs that
// build a full simulated deployment, drive stewarded traffic through
// it, and check the protocol's contracts as a fixed-order invariant
// report. There are two campaign kinds, and they share everything but
// what they inject:
//
//   - The chaos campaign (RunChaos) composes non-malicious fault kinds
//     the steady-state experiments never mix — random probe-packet
//     loss, tomography leaves going silent, DHT replica outages,
//     evidence archives aging past the §3.4 admissibility window Δ, and
//     node crash/join churn interleaved with in-flight messages — on
//     top of the baseline link-failure process, and checks that every
//     layer degrades gracefully: diagnosis widens its uncertainty
//     rather than convicting on missing evidence, replication never
//     loses a published accusation while outages stay below quorum,
//     routing state stays valid through churn, and nothing panics.
//   - The adversarial campaign (RunAdversary) runs a grid of cells
//     (attack strategy × attacker fraction): selective and
//     probabilistic droppers tuned to slip under the (w,m) sliding
//     window, colluding cliques that corroborate forged tomography
//     observations and co-sign bogus accusations, accusation-spam
//     floods against the DHT repository, and eclipse-style identifier
//     placement aimed at the §3.1 γ density test. Each cell measures an
//     ROC-style conviction curve: attacker conviction rate vs. honest
//     false-conviction rate as the decision threshold sweeps.
//
// Both kinds build their deployment with Deployment.build, route
// traffic with testbed.sendTraffic, and report through Invariants.
// Campaigns are deterministic: a root seed derives independent PCG
// substreams via parexec, namespaced per kind so the two kinds never
// replay each other's streams at the same seed, and the worker count
// only parallelizes randomness-free work, so the same seed reproduces
// the same report bit for bit at any worker count.
package campaign

import (
	"crypto/ed25519"
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"concilium/internal/core"
	"concilium/internal/dht"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/parexec"
)

// Deployment is the part of a campaign's configuration that every
// campaign kind shares: the seed, the worker pool, and the deployment
// each run builds.
type Deployment struct {
	// Seed is the campaign's root seed; every random decision derives
	// from it.
	Seed uint64
	// Workers sizes the campaign's worker pool (<= 0 selects
	// GOMAXPROCS). Reports are identical for every value.
	Workers int
	// System configures the deployment under test.
	System core.SystemConfig
	// Replicas is the DHT replica-set size for the accusation store.
	Replicas int
	// Warmup is the probing time before any fault, attack or traffic.
	Warmup time.Duration
	// Pace is the virtual time between consecutive messages.
	Pace time.Duration
}

// validate reports the first invalid shared field.
func (d *Deployment) validate() error {
	if err := d.System.Validate(); err != nil {
		return err
	}
	switch {
	case d.Replicas < 3:
		return fmt.Errorf("campaign: %d replicas cannot tolerate an outage", d.Replicas)
	case d.Warmup <= 0 || d.Pace <= 0:
		return fmt.Errorf("campaign: warmup %v and pace %v must be positive", d.Warmup, d.Pace)
	case d.System.Blame.MinProbesPerLink < 1:
		// Without an evidence floor an emptied admissibility window
		// convicts (the paper's Eq. 2 on zero evidence), so no campaign
		// could tell degraded evidence apart from real guilt.
		return fmt.Errorf("campaign: Blame.MinProbesPerLink must be >= 1 (degraded-verdict contract)")
	}
	return nil
}

// Substream namespaces: each campaign kind XORs its own constant into
// the root seed, so a chaos and an adversarial campaign at the same
// experiment seed never replay each other's streams.
const (
	chaosNamespace     = 0x636f6e63696c6d73 // "concilms"
	adversaryNamespace = 0x6164766572736172 // "adversar"
)

// rootSeed derives a campaign kind's substream family from an
// experiment seed.
func rootSeed(seed, namespace uint64) parexec.Seed {
	return parexec.NewSeed(seed, seed^namespace)
}

// testbed is one built deployment: the system under test, the
// accusation DHT and repository beside it, and the traffic that runs
// through it.
type testbed struct {
	sys   *core.CompactSystem
	store *dht.Store
	repo  *dht.AccusationRepo
	// reg collects the deployment's metric series; reports keep only
	// its canonical part, so they stay a pure function of the seed at
	// every worker count.
	reg *metrics.Registry

	// keyDir outlives churn: verifying a chain signed by a node that
	// later crashed requires its public key, so keys are recorded at
	// admission and never removed.
	keyDir map[id.ID]ed25519.PublicKey

	// members is the membership in build order, the pool traffic
	// endpoints are drawn from; refreshed after each membership change.
	members []id.ID
	traffic *rand.Rand
	pace    time.Duration
}

// build assembles the deployment: the system from the system stream
// with a construction pool of workers, then the DHT, the key
// directory and the accusation repository, all publishing into reg.
// It draws nothing beyond the system build, so whatever a campaign
// kind arms between build and start leaves every stream untouched.
func (d *Deployment) build(workers int, system, traffic *rand.Rand, reg *metrics.Registry) (*testbed, error) {
	sysCfg := d.System
	sysCfg.Workers = workers
	sysCfg.Metrics = reg
	sys, err := core.BuildCompactSystem(sysCfg, system)
	if err != nil {
		return nil, err
	}
	store, err := dht.New(sys.Overlay.Ring(), d.Replicas)
	if err != nil {
		return nil, err
	}
	store.SetMetrics(reg)
	tb := &testbed{
		sys:     sys,
		store:   store,
		reg:     reg,
		keyDir:  make(map[id.ID]ed25519.PublicKey, sys.Size()),
		members: sys.AliveIDs(),
		traffic: traffic,
		pace:    d.Pace,
	}
	for i := uint32(0); i < uint32(sys.Size()); i++ {
		tb.keyDir[sys.NodeID(i)] = sys.Keys(i).Public
	}
	keys := func(x id.ID) (ed25519.PublicKey, bool) {
		k, ok := tb.keyDir[x]
		return k, ok
	}
	tb.repo, err = dht.NewAccusationRepo(store, keys, d.System.Blame.GuiltyThreshold)
	if err != nil {
		return nil, err
	}
	tb.repo.SetMetrics(reg)
	return tb, nil
}

// start launches the link-failure process and probing, in that order
// (both draw from the system stream), and probes for warmup.
func (tb *testbed) start(warmup time.Duration) error {
	if err := tb.sys.StartFailures(); err != nil {
		return err
	}
	if err := tb.sys.StartProbing(); err != nil {
		return err
	}
	tb.sys.Run(warmup)
	return nil
}

// enroll records a newly joined member's public key.
func (tb *testbed) enroll(nid id.ID) {
	i, _ := tb.sys.Overlay.IndexOf(nid)
	tb.keyDir[nid] = tb.sys.Keys(i).Public
}

// sendTraffic routes n stewarded messages between members drawn from
// the traffic stream, hands each delivery report to tally, and paces
// the virtual clock between messages. label names the batch in
// errors.
func (tb *testbed) sendTraffic(n int, label string, tally func(*core.DeliveryReport)) error {
	for i := 0; i < n; i++ {
		src := tb.members[tb.traffic.IntN(len(tb.members))]
		dst := tb.members[tb.traffic.IntN(len(tb.members))]
		rep, err := tb.sys.SendMessage(src, dst)
		if err != nil {
			return fmt.Errorf("campaign: %s message %d: %w", label, i, err)
		}
		tally(rep)
		tb.sys.Run(tb.pace)
	}
	return nil
}

// catchPanic runs f and returns its error; a panic in f is returned as
// its description instead, with a nil error. It is what turns a panic
// anywhere in a campaign into a failed no-panic invariant rather than
// a crash of the caller.
func catchPanic(f func() error) (panicked string, err error) {
	defer func() {
		if p := recover(); p != nil {
			panicked, err = fmt.Sprintf("panic: %v", p), nil
		}
	}()
	return "", f()
}

// Invariant is one checked campaign contract.
type Invariant struct {
	Name   string
	OK     bool
	Detail string
}

// Invariants is a campaign's checked contracts in evaluation order.
type Invariants []Invariant

func (l *Invariants) addInvariant(name string, ok bool, detail string) {
	*l = append(*l, Invariant{Name: name, OK: ok, Detail: detail})
}

// Passed reports whether any invariant was checked and every one held.
func (l Invariants) Passed() bool {
	if len(l) == 0 {
		return false
	}
	for _, inv := range l {
		if !inv.OK {
			return false
		}
	}
	return true
}

// render writes the invariant list and the overall result.
func (l Invariants) render(b *strings.Builder) {
	fmt.Fprintf(b, "invariants:\n")
	for _, inv := range l {
		status := "ok"
		if !inv.OK {
			status = "FAIL"
		}
		if inv.Detail != "" {
			fmt.Fprintf(b, "  [%s] %-28s %s\n", status, inv.Name, inv.Detail)
		} else {
			fmt.Fprintf(b, "  [%s] %s\n", status, inv.Name)
		}
	}
	if l.Passed() {
		fmt.Fprintf(b, "result: PASS\n")
	} else {
		fmt.Fprintf(b, "result: FAIL\n")
	}
}
