// Package overlay implements the structured peer-to-peer substrate
// Concilium runs on: a Pastry-style overlay with leaf sets and jump
// tables, plus the secure-routing variant of Castro et al. (§2) in which
// each jump-table slot is constrained to the live host closest to that
// slot's target point. The package is pure data structure and routing
// logic; signing, validation, and fault attribution live in
// internal/core.
package overlay

import (
	"fmt"
	"sort"

	"concilium/internal/id"
)

// Ring is the sorted global membership view: the compact overlay's
// table fills search it for the members sharing a prefix with a slot's
// target point, and the DHT places replicas on it.
type Ring struct {
	ids []id.ID
	// pairs shadows ids in decomposed word-pair form. Binary searches
	// compare pairs instead of re-decomposing both operands per probe,
	// which is where table construction spends its time at large N.
	pairs []id.Pair
}

// NewRing builds a ring over the given members. Duplicates are rejected.
func NewRing(members []id.ID) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("overlay: ring needs at least one member")
	}
	ids := make([]id.ID, len(members))
	copy(ids, members)
	sort.Slice(ids, func(i, j int) bool { return id.Less(ids[i], ids[j]) })
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("overlay: duplicate member %s", ids[i])
		}
	}
	return &Ring{ids: ids, pairs: makePairs(ids)}, nil
}

func makePairs(ids []id.ID) []id.Pair {
	pairs := make([]id.Pair, len(ids))
	for i, x := range ids {
		pairs[i] = x.Pair()
	}
	return pairs
}

// Size returns the number of members.
func (r *Ring) Size() int { return len(r.ids) }

// Members returns the members in ascending identifier order. The slice
// is shared and must not be modified.
func (r *Ring) Members() []id.ID { return r.ids }

// IndexOf returns x's position in the sorted member slice, by binary
// search over ids — the ring keeps no side map, so membership costs
// O(log N) and zero bytes.
func (r *Ring) IndexOf(x id.ID) (int, bool) {
	at := r.searchGE(x)
	if at < len(r.ids) && r.ids[at] == x {
		return at, true
	}
	return 0, false
}

// searchGE returns the index of the first member >= x, possibly len(ids).
func (r *Ring) searchGE(x id.ID) int {
	return r.searchGEIn(x.Pair(), 0, len(r.pairs))
}

// searchGEIn returns the index of the first member >= xp within the
// positions [lo, hi), or hi when there is none. The binary search is
// inlined: sort.Search's closure indirection and id.Cmp's per-probe
// byte decomposition both show up at million-member scale.
func (r *Ring) searchGEIn(xp id.Pair, lo, hi int) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.pairs[m].Less(xp) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// arcBounds returns the half-open index range [start, end) of members
// sharing target's first prefixLen digits, empty when no member
// qualifies; prefixLen 0 is the whole ring.
func (r *Ring) arcBounds(target id.ID, prefixLen int) (start, end int) {
	if prefixLen > id.Digits {
		prefixLen = id.Digits
	}
	lo, hi := target.Pair().PrefixRange(prefixLen)
	start = r.searchGEIn(lo, 0, len(r.pairs))
	end = r.searchGEIn(hi, start, len(r.pairs))
	if end < len(r.pairs) && r.pairs[end] == hi {
		end++
	}
	return start, end
}

// splitArc cuts the arc [lo, hi) of members sharing their first row
// digits into its Base digit sub-arcs: the members whose digit row is d
// are [cut[d], cut[d+1]). Members are sorted, so digit row never
// decreases along the arc, and each cut is one binary search over the
// part of the arc the previous cut left.
func (r *Ring) splitArc(lo, hi, row int, cut *[id.Base + 1]int) {
	cut[0], cut[id.Base] = lo, hi
	for d := byte(1); d < id.Base; d++ {
		a, b := cut[d-1], hi
		for a < b {
			m := int(uint(a+b) >> 1)
			if r.pairs[m].Digit(row) < d {
				a = m + 1
			} else {
				b = m
			}
		}
		cut[d] = a
	}
}

// closestWithPrefixExcl returns the ring position of the member closest
// to target (by id.Closer) among those sharing target's first prefixLen
// digits, excluding the member at position excl.
func (r *Ring) closestWithPrefixExcl(target id.ID, prefixLen, excl int) (int, bool) {
	if prefixLen <= 0 {
		return r.closestExcl(target, excl)
	}
	lo, hi := r.arcBounds(target, prefixLen)
	return r.closestInArc(target, lo, hi, excl)
}

// closestInArc returns the position of the member of the arc [lo, hi)
// closest to target, excluding position excl. target must share the
// arc's prefix, so its insertion point inside the arc is the one a
// whole-ring searchGE finds. Within a shared-prefix arc there is no
// wraparound, so distance to target is monotone on each side of that
// point: the winner is among the nearest two candidates per side (two,
// because the nearest may be excl). O(log arc) instead of an arc scan.
func (r *Ring) closestInArc(target id.ID, lo, hi, excl int) (int, bool) {
	pos := r.searchGEIn(target.Pair(), lo, hi)
	best, found := 0, false
	for _, i := range [4]int{pos, pos + 1, pos - 1, pos - 2} {
		if i < lo || i >= hi || i == excl {
			continue
		}
		if !found || id.Closer(r.ids[i], r.ids[best], target) {
			best, found = i, true
		}
	}
	return best, found
}

// closestExcl is closestWithPrefixExcl over the whole ring: the
// circularly nearest member other than excl is within two ring steps of
// target's insertion point, so four probes replace an outward walk.
func (r *Ring) closestExcl(target id.ID, excl int) (int, bool) {
	n := len(r.ids)
	pos := r.searchGE(target)
	best, found := 0, false
	for _, off := range [4]int{0, 1, -1, -2} {
		i := ((pos+off)%n + n) % n
		if i == excl {
			continue
		}
		if !found || id.Closer(r.ids[i], r.ids[best], target) {
			best, found = i, true
		}
	}
	return best, found
}

// uniformWithPrefixExcl picks uniformly among the members sharing
// target's first prefixLen digits, excluding (at most) the one at
// position excl, and returns the pick's position.
func (r *Ring) uniformWithPrefixExcl(target id.ID, prefixLen, excl int, rng interface{ IntN(int) int }) (int, bool) {
	lo, hi := r.arcBounds(target, prefixLen)
	return uniformInArc(lo, hi, excl, rng)
}

// uniformInArc picks uniformly among the positions [lo, hi) other than
// excl. It consumes one rng.IntN over the candidate count when a
// candidate exists and no draw otherwise.
func uniformInArc(lo, hi, excl int, rng interface{ IntN(int) int }) (int, bool) {
	count := hi - lo
	skip := excl >= lo && excl < hi
	if skip {
		count--
	}
	if count <= 0 {
		return 0, false
	}
	j := lo + rng.IntN(count)
	if skip && j >= excl {
		j++
	}
	return j, true
}
