package overlay

import (
	"testing"

	"concilium/internal/id"
)

// routeKeys returns keys to route to on c: every kind the DHT and the
// traffic plane produce — members, random points, and points just past
// a member, where a leaf-coverage gap would show.
func routeKeys(c *Compact, count int) []id.ID {
	r := testRand()
	keys := make([]id.ID, 0, count)
	for len(keys) < count {
		m := c.ID(uint32(r.IntN(c.Size())))
		switch len(keys) % 3 {
		case 0:
			keys = append(keys, m)
		case 1:
			keys = append(keys, id.Random(r))
		default:
			keys = append(keys, m.WithDigit(id.Digits-1, byte(r.IntN(id.Base))))
		}
	}
	return keys
}

// checkRoutesReachRoot routes from every sampled source to every key
// and requires the route to end, within 2·Digits hops, at the key's
// root: the member a whole-ring scan finds closest to it.
func checkRoutesReachRoot(t *testing.T, c *Compact, keys []id.ID, sources int) {
	t.Helper()
	ring := mustRing(t, c.ring.ids)
	var route []uint32
	step := max(1, c.Size()/sources)
	for src := 0; src < c.Size(); src += step {
		for _, key := range keys {
			var err error
			route, err = c.AppendRouteSecure(uint32(src), key, 0, route[:0])
			if err != nil {
				t.Fatalf("n=%d: %v", c.Size(), err)
			}
			if route[0] != uint32(src) || len(route)-1 > 2*id.Digits {
				t.Fatalf("n=%d: route from %d to %s: %v", c.Size(), src, key.Short(), route)
			}
			root, _ := bruteClosest(ring, key, 0, -1)
			if end := route[len(route)-1]; int(end) != root {
				t.Fatalf("n=%d: route from %d to %s ended at %s, root is %s",
					c.Size(), src, key.Short(), c.ID(end).Short(), c.ID(uint32(root)).Short())
			}
		}
	}
}

// TestRouteSecureConverges: a secure route from any member ends at the
// root of its key, on every ring size from 2 through 18 — rings the
// leaf set wraps, where coverage is the whole ring — and at 40 and 300.
func TestRouteSecureConverges(t *testing.T) {
	t.Parallel()
	for n := 2; n <= 18; n++ {
		c := buildCompact(t, n, uint64(7000+n))
		checkRoutesReachRoot(t, c, routeKeys(c, 60), n)
	}
	for _, n := range []int{40, 300} {
		c := buildCompact(t, n, uint64(7000+n))
		checkRoutesReachRoot(t, c, routeKeys(c, 60), 40)
	}
}

// TestRouteSecureToNonMemberKey: routing toward an arbitrary key (DHT
// insertion) terminates at the member numerically closest to it, on a
// ring whose leaf sets cover a small arc.
func TestRouteSecureToNonMemberKey(t *testing.T) {
	t.Parallel()
	r := testRand()
	c := buildCompact(t, 1000, 59)
	keys := make([]id.ID, 100)
	for k := range keys {
		keys[k] = id.Random(r)
	}
	checkRoutesReachRoot(t, c, keys, 20)
}
