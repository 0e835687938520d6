// Package baseline implements the RON-style comparator the paper
// contrasts with (§5): resilient overlay networks actively probe the
// paths between gateways, detect outages, and route around them — but
// they always ascribe blame to the network. A misbehaving RON node is
// indistinguishable from a broken path and must be removed by a human
// operator. Concilium's benchmarks use this package to quantify what the
// blame-attribution machinery adds.
package baseline

import (
	"fmt"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// Diagnosis is RON's verdict for a failed transfer. It has exactly one
// value carrying information: the network did it.
type Diagnosis struct {
	// PathBad reports that RON's probing saw the path as unusable.
	PathBad bool
	// Detour is an alternate one-intermediate route, when one exists.
	Detour id.ID
	// DetourFound reports whether any detour worked.
	DetourFound bool
}

// RON monitors the O(N²) paths among a set of member gateways and
// offers one-hop detours when the direct path fails.
type RON struct {
	net     *netsim.Network
	members []id.ID
	paths   map[id.ID]map[id.ID][]topology.LinkID
}

// New creates a RON over the given members. paths[src][dst] is the IP
// link path between each member pair; missing entries mean the pair
// cannot communicate directly.
func New(net *netsim.Network, members []id.ID, paths map[id.ID]map[id.ID][]topology.LinkID) (*RON, error) {
	if net == nil {
		return nil, fmt.Errorf("baseline: nil network")
	}
	if len(members) < 2 {
		return nil, fmt.Errorf("baseline: RON needs at least 2 members, got %d", len(members))
	}
	if paths == nil {
		return nil, fmt.Errorf("baseline: nil path matrix")
	}
	return &RON{net: net, members: append([]id.ID(nil), members...), paths: paths}, nil
}

// PathUsable actively probes the direct path between two members.
func (r *RON) PathUsable(src, dst id.ID) bool {
	path, ok := r.pathBetween(src, dst)
	if !ok {
		return false
	}
	return r.net.PathUp(path)
}

func (r *RON) pathBetween(src, dst id.ID) ([]topology.LinkID, bool) {
	row, ok := r.paths[src]
	if !ok {
		return nil, false
	}
	p, ok := row[dst]
	return p, ok
}

// Diagnose is RON's response to a failed transfer from src to dst: probe
// the direct path, and if it is bad, look for a one-intermediate detour.
// Note what is absent: no node is ever blamed. If the direct path probes
// healthy (the drop was a misbehaving host), RON reports PathBad=false
// and has nothing further to say — the forwarder escapes.
func (r *RON) Diagnose(src, dst id.ID) Diagnosis {
	d := Diagnosis{PathBad: !r.PathUsable(src, dst)}
	if !d.PathBad {
		return d
	}
	for _, mid := range r.members {
		if mid == src || mid == dst {
			continue
		}
		if r.PathUsable(src, mid) && r.PathUsable(mid, dst) {
			d.Detour = mid
			d.DetourFound = true
			return d
		}
	}
	return d
}
