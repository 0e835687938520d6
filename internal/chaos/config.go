// Package chaos is Concilium's fault-injection campaign engine. A
// campaign builds a full simulated deployment, then composes fault
// kinds the steady-state experiments never mix — random probe-packet
// loss, tomography leaves going silent, DHT replica outages, evidence
// archives aging past the §3.4 admissibility window Δ, and node
// crash/join churn interleaved with in-flight messages — on top of the
// baseline link-failure process. While the faults run, the campaign
// drives stewarded traffic and checks the degradation contracts of
// every layer: diagnosis must widen its uncertainty rather than
// convict on missing evidence, replication must never lose a published
// accusation while outages stay below quorum, routing state must stay
// valid through churn, and nothing may panic.
//
// Campaigns are deterministic: a root seed derives independent PCG
// substreams (system, fault schedule, traffic) via parexec, and the
// worker count only parallelizes randomness-free construction, so the
// same seed reproduces the same report bit for bit at any -workers.
package chaos

import (
	"fmt"
	"math"
	"time"

	"concilium/internal/core"
	"concilium/internal/topology"
)

// Config parameterizes one chaos campaign.
type Config struct {
	// Seed is the campaign's root seed; every random decision derives
	// from it.
	Seed uint64
	// Workers sizes the construction worker pool (<= 0 selects
	// GOMAXPROCS). Reports are identical for every value.
	Workers int
	// System configures the deployment under test.
	System core.SystemConfig
	// Replicas is the DHT replica-set size for the accusation store.
	Replicas int
	// ReplicaOutage is the number of concurrently faulty DHT members
	// during the outage episode. Keeping it at or below
	// (Replicas-1)/2 preserves per-key quorum, which is what makes the
	// durability invariant checkable.
	ReplicaOutage int
	// MessagesPerPhase is the stewarded-traffic volume each fault
	// episode routes.
	MessagesPerPhase int
	// ChurnRounds is the number of crash/join rounds in the churn
	// episode.
	ChurnRounds int
	// ProbeLoss is the sweep-loss probability during the probe-loss
	// episode.
	ProbeLoss float64
	// SilentLeaves is how many nodes stop publishing probes during the
	// leaf-silence episode.
	SilentLeaves int
	// AdversaryFraction marks this share of the overlay (taken from the
	// tail of the deterministic node order, disjoint from the
	// MaliciousFraction head that BuildCompactSystem marks) as Byzantine
	// probabilistic droppers for the whole campaign. The marking uses
	// SetBehavior and consumes no randomness, so 0 reproduces the exact
	// pre-knob campaign byte for byte. For full attack strategies and
	// conviction ROCs, hand the config to adversary.FromChaos instead.
	AdversaryFraction float64
	// AdversaryDropProb is the marked droppers' per-forward drop
	// probability; required in (0,1) when AdversaryFraction > 0.
	AdversaryDropProb float64
	// Warmup is the probing time before any fault or traffic.
	Warmup time.Duration
	// Pace is the virtual time between consecutive messages.
	Pace time.Duration
}

// ShortConfig is the CI smoke campaign: a small overlay, one episode
// of each fault kind, a few churn rounds. Runs in a few seconds.
func ShortConfig(seed uint64) Config {
	sys := core.DefaultSystemConfig()
	sys.Topology = topology.TestConfig()
	sys.OverlayFraction = 0.5
	sys.MaliciousFraction = 0.1
	sys.ArchiveRetention = 5 * time.Minute
	sys.MaxProbeTime = time.Minute
	// Slow hops give churn events a mid-flight window to land in.
	sys.HopLatency = 200 * time.Millisecond
	// The degraded-verdict contract needs an evidence floor: without
	// it, an emptied admissibility window convicts (the paper's Eq. 2
	// on zero evidence), and the staleness episode could not be told
	// apart from real guilt.
	sys.Blame.MinProbesPerLink = 1
	return Config{
		Seed:             seed,
		System:           sys,
		Replicas:         5,
		ReplicaOutage:    2,
		MessagesPerPhase: 10,
		ChurnRounds:      4,
		ProbeLoss:        0.4,
		SilentLeaves:     3,
		Warmup:           3 * time.Minute,
		Pace:             2 * time.Second,
	}
}

// LongConfig is the soak variant: same faults, more traffic and churn.
func LongConfig(seed uint64) Config {
	cfg := ShortConfig(seed)
	cfg.MessagesPerPhase = 30
	cfg.ChurnRounds = 10
	cfg.Warmup = 5 * time.Minute
	return cfg
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if err := c.System.Validate(); err != nil {
		return err
	}
	switch {
	case c.Replicas < 3:
		return fmt.Errorf("chaos: %d replicas cannot tolerate an outage", c.Replicas)
	case c.ReplicaOutage < 1 || c.ReplicaOutage > (c.Replicas-1)/2:
		return fmt.Errorf("chaos: replica outage %d outside [1, %d] (quorum bound for %d replicas)",
			c.ReplicaOutage, (c.Replicas-1)/2, c.Replicas)
	case c.MessagesPerPhase <= 0:
		return fmt.Errorf("chaos: messages per phase %d must be positive", c.MessagesPerPhase)
	case c.ChurnRounds < 0:
		return fmt.Errorf("chaos: churn rounds %d negative", c.ChurnRounds)
	case c.ProbeLoss <= 0 || c.ProbeLoss >= 1 || math.IsNaN(c.ProbeLoss):
		return fmt.Errorf("chaos: probe loss %v out of (0,1)", c.ProbeLoss)
	case c.SilentLeaves <= 0:
		return fmt.Errorf("chaos: silent leaves %d must be positive", c.SilentLeaves)
	case c.AdversaryFraction < 0 || c.AdversaryFraction > 0.4 || math.IsNaN(c.AdversaryFraction):
		return fmt.Errorf("chaos: adversary fraction %v out of [0, 0.4]", c.AdversaryFraction)
	case c.AdversaryFraction > 0 && (c.AdversaryDropProb <= 0 || c.AdversaryDropProb >= 1 || math.IsNaN(c.AdversaryDropProb)):
		return fmt.Errorf("chaos: adversary drop probability %v out of (0,1)", c.AdversaryDropProb)
	case c.AdversaryFraction+c.System.MaliciousFraction > 0.5:
		return fmt.Errorf("chaos: adversary fraction %v plus malicious fraction %v exceeds 0.5 (honest majority lost)",
			c.AdversaryFraction, c.System.MaliciousFraction)
	case c.Warmup <= 0 || c.Pace <= 0:
		return fmt.Errorf("chaos: warmup %v and pace %v must be positive", c.Warmup, c.Pace)
	case c.System.Blame.MinProbesPerLink < 1:
		return fmt.Errorf("chaos: campaign requires Blame.MinProbesPerLink >= 1 for the degraded-verdict contract")
	}
	return nil
}
