package tomography

import (
	"fmt"
	"sort"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/stats"
	"concilium/internal/topology"
)

// §3.7: hosts that trust each other and reside in the same stub network
// can consolidate probing responsibility, taking turns to probe the
// multi-forest induced by their collective routing state. Links shared
// by several members' trees are then probed once per period instead of
// once per member, amortizing the heavyweight-probing bandwidth.

// Collective is a group of co-located, mutually trusting hosts sharing
// probe duty round-robin.
type Collective struct {
	members []id.ID
	trees   map[id.ID]*Tree

	union []topology.LinkID
	turn  int
}

// NewCollective groups the members with their trees. Every member needs
// a tree; the member list is copied.
func NewCollective(members []id.ID, trees map[id.ID]*Tree) (*Collective, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("tomography: collective needs members")
	}
	set := make(map[topology.LinkID]struct{})
	seen := make(map[id.ID]bool, len(members))
	for _, m := range members {
		if seen[m] {
			return nil, fmt.Errorf("tomography: duplicate member %s", m.Short())
		}
		seen[m] = true
		t, ok := trees[m]
		if !ok || t == nil {
			return nil, fmt.Errorf("tomography: member %s has no tree", m.Short())
		}
		for _, l := range t.Links() {
			set[l] = struct{}{}
		}
	}
	union := make([]topology.LinkID, 0, len(set))
	for l := range set {
		union = append(union, l)
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	cp := make(map[id.ID]*Tree, len(members))
	for _, m := range members {
		cp[m] = trees[m]
	}
	return &Collective{
		members: append([]id.ID(nil), members...),
		trees:   cp,
		union:   union,
	}, nil
}

// Members returns the collective's membership.
func (c *Collective) Members() []id.ID {
	return append([]id.ID(nil), c.members...)
}

// MultiForestLinks returns the union of every member's tree links —
// what one probing turn must cover.
func (c *Collective) MultiForestLinks() []topology.LinkID { return c.union }

// NextProber returns whose turn it is and advances the rotation.
func (c *Collective) NextProber() id.ID {
	m := c.members[c.turn]
	c.turn = (c.turn + 1) % len(c.members)
	return m
}

// ProbeOnce performs one shared probing turn: the member whose turn it
// is observes the entire multi-forest and the results are published on
// behalf of the collective. It returns the prober and its observations.
func (c *Collective) ProbeOnce(net *netsim.Network, accuracy float64, rng stats.Rand) (id.ID, []LinkObservation, error) {
	prober := c.NextProber()
	obs, err := AppendObserveLinks(nil, net, c.union, accuracy, rng)
	if err != nil {
		return id.ID{}, nil, err
	}
	return prober, obs, nil
}

// Savings quantifies the amortization: the number of per-period link
// observations with individual probing (every member probes its own
// tree) versus consolidated probing (one member probes the union), and
// the resulting reduction factor.
func (c *Collective) Savings() (individual, shared int, factor float64) {
	for _, m := range c.members {
		individual += len(c.trees[m].Links())
	}
	shared = len(c.union)
	if shared == 0 {
		return individual, shared, 1
	}
	return individual, shared, float64(individual) / float64(shared)
}
