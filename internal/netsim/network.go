package netsim

import (
	"fmt"
	"math"
	"time"

	"concilium/internal/metrics"
	"concilium/internal/stats"
	"concilium/internal/topology"
)

// LossModel maps a link's up/down state to a packet-drop probability.
// The paper's evaluation treats links as binary ("5% of links were bad");
// DownLoss = 1 reproduces that, while a fractional DownLoss exercises the
// tomography engine's loss-rate inference.
type LossModel struct {
	// BaseLoss is the drop probability of a healthy link.
	BaseLoss float64
	// DownLoss is the drop probability of a failed link.
	DownLoss float64
}

// Validate checks both probabilities.
func (m LossModel) Validate() error {
	for _, p := range []float64{m.BaseLoss, m.DownLoss} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("netsim: loss probability %v out of [0,1]", p)
		}
	}
	return nil
}

// BinaryLossModel is the paper's model: good links never drop, bad links
// always drop.
func BinaryLossModel() LossModel { return LossModel{BaseLoss: 0, DownLoss: 1} }

// Network couples a topology with per-link failure state and a loss
// model, and delivers packets over precomputed link paths with per-hop
// latency. It is driven entirely by the owning Simulator's goroutine.
type Network struct {
	graph *topology.Graph
	sim   *Simulator
	rng   stats.Rand

	loss       LossModel
	hopLatency time.Duration
	watch      func(topology.LinkID, bool)

	down      []bool
	downCount int

	met netMetrics
}

// netMetrics caches the network's metric handles; all nil (discard)
// until WithMetrics installs a live registry.
type netMetrics struct {
	failures  *metrics.Counter
	repairs   *metrics.Counter
	delivered *metrics.Counter
	dropped   *metrics.Counter
	downG     *metrics.Gauge
}

// NetworkOption configures a Network.
type NetworkOption func(*Network)

// WithLossModel overrides the default binary loss model.
func WithLossModel(m LossModel) NetworkOption {
	return func(n *Network) { n.loss = m }
}

// WithHopLatency sets the per-link propagation delay (default 2ms).
func WithHopLatency(d time.Duration) NetworkOption {
	return func(n *Network) { n.hopLatency = d }
}

// WithLinkWatcher registers a callback invoked on every actual link
// state change (failures and repairs), for tracing and metrics.
func WithLinkWatcher(fn func(topology.LinkID, bool)) NetworkOption {
	return func(n *Network) { n.watch = fn }
}

// WithMetrics publishes link-churn counters, a down-link high-water
// gauge, and packet delivery/drop counters into reg (names "netsim/*").
// All are deterministic for a fixed seed. A nil registry is a no-op.
func WithMetrics(reg *metrics.Registry) NetworkOption {
	return func(n *Network) {
		n.met = netMetrics{
			failures:  reg.Counter("netsim/link_failures"),
			repairs:   reg.Counter("netsim/link_repairs"),
			delivered: reg.Counter("netsim/packets_delivered"),
			dropped:   reg.Counter("netsim/packets_dropped"),
			downG:     reg.Gauge("netsim/links_down_highwater"),
		}
	}
}

// NewNetwork creates a network over g, scheduling deliveries on sim and
// sampling losses from rng.
func NewNetwork(g *topology.Graph, sim *Simulator, rng stats.Rand, opts ...NetworkOption) (*Network, error) {
	if g == nil || sim == nil || rng == nil {
		return nil, fmt.Errorf("netsim: network requires graph, simulator, and rng")
	}
	n := &Network{
		graph:      g,
		sim:        sim,
		rng:        rng,
		loss:       BinaryLossModel(),
		hopLatency: 2 * time.Millisecond,
		down:       make([]bool, g.NumLinks()),
	}
	for _, opt := range opts {
		opt(n)
	}
	if err := n.loss.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// Graph returns the underlying topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// Sim returns the owning simulator.
func (n *Network) Sim() *Simulator { return n.sim }

// SetLinkDown marks link l failed or repaired.
func (n *Network) SetLinkDown(l topology.LinkID, isDown bool) error {
	if l < 0 || int(l) >= len(n.down) {
		return fmt.Errorf("netsim: unknown link %d", l)
	}
	if n.down[l] == isDown {
		return nil
	}
	n.down[l] = isDown
	if isDown {
		n.downCount++
		n.met.failures.Inc()
		n.met.downG.Set(int64(n.downCount))
	} else {
		n.downCount--
		n.met.repairs.Inc()
	}
	if n.watch != nil {
		n.watch(l, isDown)
	}
	return nil
}

// LinkDown reports whether link l is currently failed.
func (n *Network) LinkDown(l topology.LinkID) bool {
	return l >= 0 && int(l) < len(n.down) && n.down[l]
}

// DownCount returns the number of currently failed links.
func (n *Network) DownCount() int { return n.downCount }

// LinkLoss returns the current drop probability of link l.
func (n *Network) LinkLoss(l topology.LinkID) float64 {
	if n.LinkDown(l) {
		return n.loss.DownLoss
	}
	return n.loss.BaseLoss
}

// PathUp reports whether every link on the path is currently healthy.
func (n *Network) PathUp(path []topology.LinkID) bool {
	for _, l := range path {
		if n.LinkDown(l) {
			return false
		}
	}
	return true
}

// FirstDownLink returns the first failed link along path, if any. One
// call corresponds to one packet leg traversing the path, so it also
// feeds the packets_delivered/packets_dropped counters.
func (n *Network) FirstDownLink(path []topology.LinkID) (topology.LinkID, bool) {
	for _, l := range path {
		if n.LinkDown(l) {
			n.met.dropped.Inc()
			return l, true
		}
	}
	n.met.delivered.Inc()
	return 0, false
}

// SamplePacket simulates one packet traversal of path, sampling each
// link's loss independently. It reports survival.
func (n *Network) SamplePacket(path []topology.LinkID) bool {
	for _, l := range path {
		p := n.LinkLoss(l)
		if p >= 1 {
			return false
		}
		if p > 0 && n.rng.Float64() < p {
			return false
		}
	}
	return true
}

// Latency returns the one-way delay of a path.
func (n *Network) Latency(path []topology.LinkID) time.Duration {
	return time.Duration(len(path)) * n.hopLatency
}
