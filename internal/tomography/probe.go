package tomography

import (
	"fmt"
	"math"
	"slices"

	"concilium/internal/metrics"
	"concilium/internal/netsim"
	"concilium/internal/stats"
	"concilium/internal/topology"
)

// Prober runs tomographic probing of one tree against the simulated
// network. Striped unicast probes are emulated faithfully: packets in a
// stripe are sent back to back, so they see identical fates on shared
// interior links (one loss sample per link per stripe) and independent
// fates past the branch point — the property Duffield's scheme exploits.
type Prober struct {
	tree *Tree
	net  *netsim.Network
	rng  stats.Rand

	packets      *metrics.Counter
	unreached    *metrics.Counter
	sweepPackets *metrics.Histogram

	// Scratch arenas, all keyed off the (fixed) tree size and reused
	// across probe rounds so steady-state sweeps allocate nothing:
	// ackScratch backs LightweightResult.Acked, fateScratch is the
	// shared-fate map cleared per stripe, measScratch the heavyweight
	// accumulator, and btScratch the tree's branching structure (a pure
	// function of the leaf paths, computed once).
	ackScratch  []bool
	fateScratch map[topology.LinkID]bool
	measScratch *measurement
	btScratch   *branchTree
}

// NewProber builds a prober for tree over net.
func NewProber(tree *Tree, net *netsim.Network, rng stats.Rand) (*Prober, error) {
	if tree == nil || net == nil || rng == nil {
		return nil, fmt.Errorf("tomography: prober requires tree, network, and rng")
	}
	return &Prober{tree: tree, net: net, rng: rng}, nil
}

// SetMetrics publishes probing volume into reg: total probe packets,
// leaves declared unreached, and a per-sweep packet histogram (names
// "tomography/probe_*"). A nil registry disables publication.
func (p *Prober) SetMetrics(reg *metrics.Registry) {
	p.packets = reg.Counter("tomography/probe_packets")
	p.unreached = reg.Counter("tomography/probe_unreached")
	p.sweepPackets = reg.MustHistogram("tomography/probe_sweep_packets", metrics.CountBuckets)
}

// LightweightResult is the outcome of one availability-probe sweep: for
// each leaf, whether any probe (initial or retry) was acknowledged.
type LightweightResult struct {
	// Acked[i] corresponds to tree.Leaves[i]. The slice aliases the
	// prober's scratch arena: it is valid until that prober's next
	// sweep, and callers that retain it across sweeps must copy it out.
	Acked []bool
	// Packets counts probe packets sent (for bandwidth accounting).
	Packets int
	// Unreached counts leaves still silent when the sweep ended.
	Unreached int
}

// LightweightProbe emulates the paper's lightweight tomography: the
// availability probes a host already sends to its routing peers, issued
// back to back so they stripe across shared links. Silent peers get
// `retries` further independent probes before being declared unreached
// (§3.2).
func (p *Prober) LightweightProbe(retries int) LightweightResult {
	res := LightweightResult{Acked: p.ackBuffer()}
	// Initial stripe: one shared fate per link.
	fate := p.fateBuffer()
	for i, leaf := range p.tree.Leaves {
		res.Acked[i] = p.sampleStriped(leaf.Path, fate)
		res.Packets++
	}
	// Retries are separate packets: independent samples, round by round
	// until every leaf has answered.
	for r := 0; r < retries; r++ {
		silent := false
		for i := range p.tree.Leaves {
			if !res.Acked[i] {
				silent = true
				break
			}
		}
		if !silent {
			break
		}
		for i, leaf := range p.tree.Leaves {
			if res.Acked[i] {
				continue
			}
			res.Packets++
			if p.samplePath(leaf.Path) {
				res.Acked[i] = true
			}
		}
	}
	for _, acked := range res.Acked {
		if !acked {
			res.Unreached++
		}
	}
	p.packets.Add(uint64(res.Packets))
	p.unreached.Add(uint64(res.Unreached))
	p.sweepPackets.Observe(int64(res.Packets))
	return res
}

// ackBuffer returns the prober's per-leaf ack scratch, sized to the
// tree and cleared. LightweightResult.Acked aliases it.
func (p *Prober) ackBuffer() []bool {
	n := len(p.tree.Leaves)
	if cap(p.ackScratch) < n {
		p.ackScratch = make([]bool, n)
	}
	p.ackScratch = p.ackScratch[:n]
	clear(p.ackScratch)
	return p.ackScratch
}

// fateBuffer returns the prober's shared-fate scratch map, cleared for
// a fresh stripe.
func (p *Prober) fateBuffer() map[topology.LinkID]bool {
	if p.fateScratch == nil {
		p.fateScratch = make(map[topology.LinkID]bool, 16)
	} else {
		clear(p.fateScratch)
	}
	return p.fateScratch
}

// sampleStriped samples survival along path, reusing fate decisions for
// links already sampled in this stripe.
func (p *Prober) sampleStriped(path []topology.LinkID, fate map[topology.LinkID]bool) bool {
	ok := true
	for _, l := range path {
		up, seen := fate[l]
		if !seen {
			up = p.sampleLink(l)
			fate[l] = up
		}
		if !up {
			ok = false
			// Keep sampling the remaining links so later paths sharing a
			// suffix see consistent fates? Physical packets stop at the
			// drop, so links past the first loss are genuinely unsampled
			// for this packet; leave them to independent sampling.
			break
		}
	}
	return ok
}

func (p *Prober) samplePath(path []topology.LinkID) bool {
	for _, l := range path {
		if !p.sampleLink(l) {
			return false
		}
	}
	return true
}

func (p *Prober) sampleLink(l topology.LinkID) bool {
	loss := p.net.LinkLoss(l)
	if loss <= 0 {
		return true
	}
	if loss >= 1 {
		return false
	}
	return p.rng.Float64() >= loss
}

// HeavyweightConfig parameterizes a full striped-unicast measurement.
type HeavyweightConfig struct {
	// StripesPerPair is the number of striped probes sent to each
	// unordered leaf pair (the paper's example uses 100).
	StripesPerPair int
	// PacketsPerStripe is the stripe width (the paper's example uses 2).
	PacketsPerStripe int
}

// DefaultHeavyweightConfig returns the paper's §4.4 example parameters.
func DefaultHeavyweightConfig() HeavyweightConfig {
	return HeavyweightConfig{StripesPerPair: 100, PacketsPerStripe: 2}
}

// Validate reports the first invalid field.
func (c HeavyweightConfig) Validate() error {
	if c.StripesPerPair <= 0 {
		return fmt.Errorf("tomography: StripesPerPair %d must be positive", c.StripesPerPair)
	}
	if c.PacketsPerStripe < 2 {
		return fmt.Errorf("tomography: PacketsPerStripe %d must be at least 2", c.PacketsPerStripe)
	}
	return nil
}

// HeavyweightProbe runs full striped unicast probing over every leaf
// pair and infers per-link loss via the maximum-likelihood estimator.
// Trees with fewer than two leaves cannot be striped; they fall back to
// marginal path measurements.
func (p *Prober) HeavyweightProbe(cfg HeavyweightConfig) (*LossEstimate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nLeaves := len(p.tree.Leaves)
	if nLeaves == 0 {
		return nil, fmt.Errorf("tomography: tree %s has no leaves", p.tree.Root.Short())
	}
	// The branching structure is a pure function of the (fixed) leaf
	// paths, so it is computed once per prober; the measurement scratch
	// is reset and reused across heavyweight rounds.
	if p.btScratch == nil {
		bt, err := buildBranchTree(p.tree.Leaves)
		if err != nil {
			return nil, err
		}
		p.btScratch = bt
	}
	bt := p.btScratch
	if p.measScratch == nil || p.measScratch.n != nLeaves {
		p.measScratch = newMeasurement(nLeaves)
	} else {
		p.measScratch.reset()
	}
	m := p.measScratch
	if nLeaves == 1 {
		// Degenerate: only marginal information exists.
		for s := 0; s < cfg.StripesPerPair; s++ {
			ok := p.samplePath(p.tree.Leaves[0].Path)
			m.record(0, ok, 0, ok, false)
			m.packets++
		}
		return inferLoss(p.tree, bt, m)
	}
	for i := 0; i < nLeaves; i++ {
		for j := i + 1; j < nLeaves; j++ {
			for s := 0; s < cfg.StripesPerPair; s++ {
				fate := p.fateBuffer()
				oki := p.sampleStriped(p.tree.Leaves[i].Path, fate)
				okj := p.sampleStriped(p.tree.Leaves[j].Path, fate)
				m.record(i, oki, j, okj, true)
				m.packets += cfg.PacketsPerStripe
			}
		}
	}
	return inferLoss(p.tree, bt, m)
}

// AppendObserveLinks is the accuracy-model shortcut used by the
// large-scale accusation experiments: per §4.3 the paper assumes "hosts
// can identify whether a link was up or down with 90% accuracy", so
// each link's true status is reported correctly with probability
// accuracy and inverted otherwise. It appends one observation per link
// to out (which may be a reused scratch slice) and returns the extended
// slice. Each link draws one rng.Float64(), in link order; while no
// link is down, none is looked up.
func AppendObserveLinks(out []LinkObservation, net *netsim.Network, links []topology.LinkID, accuracy float64, rng stats.Rand) ([]LinkObservation, error) {
	if accuracy < 0.5 || accuracy > 1 || math.IsNaN(accuracy) {
		return nil, fmt.Errorf("tomography: probe accuracy %v out of [0.5, 1]", accuracy)
	}
	anyDown := net.DownCount() > 0
	n := len(out)
	out = slices.Grow(out, len(links))[:n+len(links)]
	for i, l := range links {
		down := anyDown && net.LinkDown(l)
		out[n+i] = LinkObservation{Link: l, Up: (rng.Float64() < accuracy) != down}
	}
	return out, nil
}

// LinkObservation is one probed link status: the paper's p.l_up bit.
type LinkObservation struct {
	Link topology.LinkID
	Up   bool
}
