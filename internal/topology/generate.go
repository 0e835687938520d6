package topology

import (
	"fmt"
	"math"

	"concilium/internal/stats"
)

// Config parameterizes the transit-stub generator. The generated graph
// has three tiers, mirroring the structural properties the paper's
// SCAN-derived topology contributes to the evaluation:
//
//   - a densely connected transit core whose links are shared by many
//     overlay paths (covered by the first few tomography trees),
//   - sparse stub domains hanging off transit routers, and
//   - degree-1 end hosts on stub routers (the last-mile links that only
//     their own host's tree can probe).
type Config struct {
	// TransitDomains is the number of core domains.
	TransitDomains int
	// RoutersPerTransitDomain is the size of each core domain, connected
	// as a ring plus chords.
	RoutersPerTransitDomain int
	// TransitChordsPerRouter adds intra-domain shortcut edges.
	TransitChordsPerRouter int
	// InterDomainLinks is the number of links added between each pair of
	// adjacent domains on the domain ring, plus one per non-adjacent pair.
	InterDomainLinks int
	// StubsPerTransitRouter attaches this many stub domains to every
	// transit router.
	StubsPerTransitRouter int
	// MeanRoutersPerStub sizes each stub uniformly in [1, 2*mean-1].
	MeanRoutersPerStub int
	// StubChordFraction adds approximately this many extra intra-stub
	// edges per stub router.
	StubChordFraction float64
	// StubMultihomeFraction gives this fraction of stubs a second uplink
	// to a random transit router.
	StubMultihomeFraction float64
	// HostsPerStubRouter is the expected number of degree-1 end hosts per
	// stub router.
	HostsPerStubRouter float64
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.TransitDomains <= 0:
		return fmt.Errorf("topology: TransitDomains %d must be positive", c.TransitDomains)
	case c.RoutersPerTransitDomain <= 0:
		return fmt.Errorf("topology: RoutersPerTransitDomain %d must be positive", c.RoutersPerTransitDomain)
	case c.TransitChordsPerRouter < 0:
		return fmt.Errorf("topology: TransitChordsPerRouter %d negative", c.TransitChordsPerRouter)
	case c.InterDomainLinks < 0:
		return fmt.Errorf("topology: InterDomainLinks %d negative", c.InterDomainLinks)
	case c.StubsPerTransitRouter < 0:
		return fmt.Errorf("topology: StubsPerTransitRouter %d negative", c.StubsPerTransitRouter)
	case c.MeanRoutersPerStub <= 0 && c.StubsPerTransitRouter > 0:
		return fmt.Errorf("topology: MeanRoutersPerStub %d must be positive", c.MeanRoutersPerStub)
	case c.StubChordFraction < 0 || math.IsNaN(c.StubChordFraction):
		return fmt.Errorf("topology: StubChordFraction %v negative", c.StubChordFraction)
	case c.StubMultihomeFraction < 0 || c.StubMultihomeFraction > 1:
		return fmt.Errorf("topology: StubMultihomeFraction %v out of [0,1]", c.StubMultihomeFraction)
	case c.HostsPerStubRouter < 0 || math.IsNaN(c.HostsPerStubRouter):
		return fmt.Errorf("topology: HostsPerStubRouter %v negative", c.HostsPerStubRouter)
	}
	return nil
}

// TestConfig is a tiny topology for unit tests: a few hundred routers.
func TestConfig() Config {
	return Config{
		TransitDomains:          2,
		RoutersPerTransitDomain: 6,
		TransitChordsPerRouter:  1,
		InterDomainLinks:        2,
		StubsPerTransitRouter:   2,
		MeanRoutersPerStub:      4,
		StubChordFraction:       0.3,
		StubMultihomeFraction:   0.2,
		HostsPerStubRouter:      1.0,
	}
}

// DefaultConfig is the medium scale used by examples and fast
// experiments: roughly 10k routers and 4k end hosts, so a 3% overlay
// sample yields ≈120 nodes.
func DefaultConfig() Config {
	return Config{
		TransitDomains:          6,
		RoutersPerTransitDomain: 20,
		TransitChordsPerRouter:  2,
		InterDomainLinks:        3,
		StubsPerTransitRouter:   6,
		MeanRoutersPerStub:      9,
		StubChordFraction:       0.7,
		StubMultihomeFraction:   0.3,
		HostsPerStubRouter:      0.65,
	}
}

// TreelikeConfig trades link redundancy for path convergence: no
// chords, no multihoming, a sparse core. Its router count matches
// DefaultConfig but BFS routes funnel through shared trunks the way
// measured Internet routes do, which reproduces the paper's Figure 4
// own-tree coverage (~25%) that redundancy-rich graphs understate. Use
// it when an experiment's outcome depends on how much overlay paths
// share links.
func TreelikeConfig() Config {
	return Config{
		TransitDomains:          6,
		RoutersPerTransitDomain: 20,
		TransitChordsPerRouter:  0,
		InterDomainLinks:        1,
		StubsPerTransitRouter:   6,
		MeanRoutersPerStub:      9,
		StubChordFraction:       0,
		StubMultihomeFraction:   0,
		HostsPerStubRouter:      0.65,
	}
}

// TreelikePaperConfig scales TreelikeConfig to the SCAN map's node
// count: ≈113k routers with path-convergent routing. Use it for the
// Figure 4 reproduction at the paper's own overlay size.
func TreelikePaperConfig() Config {
	return Config{
		TransitDomains:          12,
		RoutersPerTransitDomain: 50,
		TransitChordsPerRouter:  0,
		InterDomainLinks:        1,
		StubsPerTransitRouter:   12,
		MeanRoutersPerStub:      10,
		StubChordFraction:       0,
		StubMultihomeFraction:   0,
		HostsPerStubRouter:      0.555,
	}
}

// PaperConfig approximates the SCAN map the paper used: ≈113k routers,
// ≈180k links, ≈37.7k degree-1 end hosts (3% → ≈1,131 overlay nodes).
func PaperConfig() Config {
	return Config{
		TransitDomains:          12,
		RoutersPerTransitDomain: 50,
		TransitChordsPerRouter:  4,
		InterDomainLinks:        4,
		StubsPerTransitRouter:   12,
		MeanRoutersPerStub:      10,
		StubChordFraction:       1.25,
		StubMultihomeFraction:   0.3,
		HostsPerStubRouter:      0.555,
	}
}

// Generate builds a transit-stub topology from cfg using src. The same
// config and seed always produce the identical graph.
func Generate(cfg Config, src stats.Rand) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{}

	// Transit core: per-domain rings with chords.
	nd, nr := cfg.TransitDomains, cfg.RoutersPerTransitDomain
	transit := make([][]RouterID, nd)
	for d := 0; d < nd; d++ {
		transit[d] = make([]RouterID, nr)
		for i := 0; i < nr; i++ {
			transit[d][i] = g.AddRouter()
		}
		if nr > 1 {
			for i := 0; i < nr; i++ {
				if _, err := g.AddLink(transit[d][i], transit[d][(i+1)%nr]); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < nr && nr > 2; i++ {
			for c := 0; c < cfg.TransitChordsPerRouter; c++ {
				j := src.IntN(nr)
				if j == i {
					continue
				}
				if _, err := g.AddLink(transit[d][i], transit[d][j]); err != nil {
					return nil, err
				}
			}
		}
	}

	// Inter-domain links: a domain ring for guaranteed connectivity, plus
	// one link per non-adjacent pair.
	for a := 0; a < nd; a++ {
		for b := a + 1; b < nd; b++ {
			adjacent := b == a+1 || (a == 0 && b == nd-1)
			n := 1
			if adjacent {
				n = cfg.InterDomainLinks
				if n == 0 {
					n = 1
				}
			}
			for k := 0; k < n; k++ {
				ra := transit[a][src.IntN(nr)]
				rb := transit[b][src.IntN(nr)]
				if _, err := g.AddLink(ra, rb); err != nil {
					return nil, err
				}
			}
		}
	}

	// Stub domains: random trees rooted at a transit router, with chords
	// and optional multihoming.
	var stubRouters []RouterID
	for d := 0; d < nd; d++ {
		for i := 0; i < nr; i++ {
			for s := 0; s < cfg.StubsPerTransitRouter; s++ {
				size := 1 + src.IntN(2*cfg.MeanRoutersPerStub-1)
				stub := make([]RouterID, size)
				for k := 0; k < size; k++ {
					stub[k] = g.AddRouter()
					var parent RouterID
					if k == 0 {
						parent = transit[d][i]
					} else {
						parent = stub[src.IntN(k)]
					}
					if _, err := g.AddLink(stub[k], parent); err != nil {
						return nil, err
					}
				}
				chords := int(cfg.StubChordFraction * float64(size))
				for c := 0; c < chords && size > 2; c++ {
					x, y := stub[src.IntN(size)], stub[src.IntN(size)]
					if x == y {
						continue
					}
					if _, err := g.AddLink(x, y); err != nil {
						return nil, err
					}
				}
				if src.Float64() < cfg.StubMultihomeFraction {
					td := src.IntN(nd)
					if _, err := g.AddLink(stub[0], transit[td][src.IntN(nr)]); err != nil {
						return nil, err
					}
				}
				stubRouters = append(stubRouters, stub...)
			}
		}
	}

	// End hosts: degree-1 routers on stub routers.
	whole := int(cfg.HostsPerStubRouter)
	frac := cfg.HostsPerStubRouter - float64(whole)
	for _, sr := range stubRouters {
		n := whole
		if src.Float64() < frac {
			n++
		}
		for k := 0; k < n; k++ {
			h := g.AddRouter()
			if _, err := g.AddLink(h, sr); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// AddRouter appends a new isolated router and returns its ID.
func (g *Graph) AddRouter() RouterID {
	g.index.Store(nil)
	g.adj = append(g.adj, nil)
	return RouterID(len(g.adj) - 1)
}
