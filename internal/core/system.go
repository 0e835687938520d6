package core

import (
	"fmt"
	"math"
	"time"

	"concilium/internal/metrics"
	"concilium/internal/netsim"
	"concilium/internal/topology"
	"concilium/internal/trace"
)

// SystemConfig assembles a complete simulated Concilium deployment.
type SystemConfig struct {
	// Topology generates the underlying IP network.
	Topology topology.Config
	// OverlayFraction selects this share of end hosts as overlay nodes
	// (the paper uses 3%).
	OverlayFraction float64
	// Blame parameterizes fault attribution.
	Blame BlameConfig
	// Window parameterizes formal accusations.
	Window WindowConfig
	// MaxProbeTime bounds the randomized lightweight-probe period
	// (the paper's evaluation uses 120 s).
	MaxProbeTime time.Duration
	// HopLatency is the per-IP-link propagation delay; message and
	// acknowledgment legs advance virtual time by it, so link state can
	// genuinely change mid-flight (0 uses netsim's 2 ms default).
	HopLatency time.Duration
	// Failures drives the link-failure injector.
	Failures netsim.FailureConfig
	// MaliciousFraction marks this share of nodes as droppers+liars.
	MaliciousFraction float64
	// ArchiveRetention prunes probe records older than this (0 keeps
	// everything; experiments set a few minutes to bound memory).
	ArchiveRetention time.Duration
	// SignedSnapshots routes every probe result through the full §3.2
	// pipeline: the prober signs a tomographic snapshot and receivers
	// verify the signature before archiving. Costs one signature and
	// one verification per probe; large-scale experiments leave it off.
	SignedSnapshots bool
	// Tracer receives structured protocol events (probes, verdicts,
	// accusations, link churn). Nil disables tracing.
	Tracer trace.Recorder
	// Metrics receives the system's quantitative metrics (probe RTT
	// histograms, blame latency, bytes on wire per message class).
	// Nil discards them; the hot-path cost of a live registry is a few
	// uncontended atomic adds per event, and every metric except the
	// reserved wall-clock class is deterministic for a fixed seed.
	Metrics *metrics.Registry
	// Workers bounds the worker pool used for the parallel parts of
	// system construction: per-node keygen and identifier draws, and
	// routing-table fills (<= 0 selects GOMAXPROCS). Per-node randomness
	// comes from substreams indexed by node position, so the built
	// system is byte-identical for every worker count; see
	// BuildCompactSystem for the determinism contract.
	Workers int
}

// DefaultSystemConfig returns a medium-scale deployment with the
// paper's protocol parameters.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		Topology:        topology.DefaultConfig(),
		OverlayFraction: 0.03,
		Blame:           DefaultBlameConfig(),
		Window:          DefaultWindowConfig(),
		MaxProbeTime:    2 * time.Minute,
		Failures:        netsim.DefaultFailureConfig(),
	}
}

// Validate reports the first invalid field.
func (c SystemConfig) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.OverlayFraction <= 0 || c.OverlayFraction > 1 || math.IsNaN(c.OverlayFraction) {
		return fmt.Errorf("core: overlay fraction %v out of (0,1]", c.OverlayFraction)
	}
	if err := c.Blame.Validate(); err != nil {
		return err
	}
	if err := c.Window.Validate(); err != nil {
		return err
	}
	if c.MaxProbeTime <= 0 {
		return fmt.Errorf("core: max probe time %v must be positive", c.MaxProbeTime)
	}
	if err := c.Failures.Validate(); err != nil {
		return err
	}
	if c.MaliciousFraction < 0 || c.MaliciousFraction >= 1 || math.IsNaN(c.MaliciousFraction) {
		return fmt.Errorf("core: malicious fraction %v out of [0,1)", c.MaliciousFraction)
	}
	if c.ArchiveRetention < 0 {
		return fmt.Errorf("core: archive retention %v negative", c.ArchiveRetention)
	}
	if c.HopLatency < 0 {
		return fmt.Errorf("core: hop latency %v negative", c.HopLatency)
	}
	return nil
}

// SystemCounters aggregates swallowed-error and fault-injection events.
// The chaos campaign prints them; zero values mean the corresponding
// path never slipped.
type SystemCounters struct {
	// ArchiveRecordErrors counts probe results the archive refused.
	ArchiveRecordErrors uint64
	// ProbeRescheduleErrors counts probe loops that died because the
	// next sweep could not be scheduled.
	ProbeRescheduleErrors uint64
	// ProbesLost counts whole sweeps eaten by injected packet loss.
	ProbesLost uint64
	// ProbesSuppressed counts sweeps skipped by suppression or silence.
	ProbesSuppressed uint64
	// GhostProbesStopped counts probe loops halted because their node
	// departed the overlay.
	GhostProbesStopped uint64
	// ChurnDrops counts deliveries that died because a route member
	// departed mid-flight.
	ChurnDrops uint64
	// ChainsUnavailable counts diagnoses whose accusation chain could
	// not be assembled because a participant departed mid-diagnosis.
	ChainsUnavailable uint64
}

// systemMetrics caches the system's metric handles so the hot paths
// pay only atomic adds, never registry map lookups. All handles are
// nil (safe discards) when no registry is configured.
type systemMetrics struct {
	probeSweeps   *metrics.Counter
	probeRTT      *metrics.Histogram
	probeBytes    *metrics.Counter
	snapshotBytes *metrics.Counter
	msgsSent      *metrics.Counter
	msgsDelivered *metrics.Counter
	msgBytes      *metrics.Counter
	ackBytes      *metrics.Counter
	blameCalls    *metrics.Counter
	blameWall     *metrics.Histogram
	blameProbes   *metrics.Histogram
	chainLen      *metrics.Histogram
}

func newSystemMetrics(r *metrics.Registry) systemMetrics {
	return systemMetrics{
		probeSweeps:   r.Counter("core/probe_sweeps"),
		probeRTT:      r.MustHistogram("core/probe_rtt_ns", metrics.LatencyBuckets),
		probeBytes:    r.Counter("wire/probe_bytes"),
		snapshotBytes: r.Counter("wire/snapshot_bytes"),
		msgsSent:      r.Counter("core/messages_sent"),
		msgsDelivered: r.Counter("core/messages_delivered"),
		msgBytes:      r.Counter("wire/message_bytes"),
		ackBytes:      r.Counter("wire/ack_bytes"),
		blameCalls:    r.Counter("core/blame_calls"),
		blameWall:     r.MustHistogram("core/blame_wallns", metrics.LatencyBuckets),
		blameProbes:   r.MustHistogram("core/blame_probes", metrics.CountBuckets),
		chainLen:      r.MustHistogram("core/accusation_chain_len", metrics.CountBuckets),
	}
}
