package overlay

import (
	"math/rand/v2"
	"testing"

	"concilium/internal/id"
)

func testRand() *rand.Rand { return rand.New(rand.NewPCG(31, 37)) }

func randomIDs(n int, r *rand.Rand) []id.ID {
	out := make([]id.ID, n)
	seen := make(map[id.ID]bool, n)
	for i := 0; i < n; {
		x := id.Random(r)
		if !seen[x] {
			seen[x] = true
			out[i] = x
			i++
		}
	}
	return out
}

func mustRing(t *testing.T, ids []id.ID) *Ring {
	t.Helper()
	r, err := NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// bruteClosest returns the ring position of the member closest to
// target among those sharing its first plen digits, skipping position
// excl (-1 skips nothing), by a scan of the whole ring.
func bruteClosest(ring *Ring, target id.ID, plen, excl int) (int, bool) {
	best, found := 0, false
	for i, x := range ring.Members() {
		if i == excl || id.CommonPrefixLen(x, target) < plen {
			continue
		}
		if !found || id.Closer(x, ring.Members()[best], target) {
			best, found = i, true
		}
	}
	return best, found
}

// TestIndexOfMatchesMap checks the binary-search membership lookup
// against a straightforward map built over the same members — the
// representation the ring used before the index map was dropped.
func TestIndexOfMatchesMap(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(11, 3))
	members := make([]id.ID, 300)
	for i := range members {
		members[i] = id.Random(rng)
	}
	ring, err := NewRing(members)
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[id.ID]int, ring.Size())
	for i, x := range ring.Members() {
		index[x] = i
	}
	for x, want := range index {
		got, ok := ring.IndexOf(x)
		if !ok || got != want {
			t.Fatalf("IndexOf(%s) = %d,%v; map says %d", x, got, ok, want)
		}
	}
	// Probe non-members: random points plus near-misses adjacent to
	// real members (the binary search's off-by-one hot spots).
	for i := 0; i < 1000; i++ {
		probe := id.Random(rng)
		if i%3 == 0 {
			base := ring.Members()[rng.IntN(ring.Size())]
			probe = base.WithDigit(id.Digits-1, byte(rng.IntN(id.Base)))
		}
		_, inMap := index[probe]
		at, ok := ring.IndexOf(probe)
		if ok != inMap {
			t.Fatalf("IndexOf(%s) membership = %v, map says %v", probe, ok, inMap)
		}
		if ok && ring.Members()[at] != probe {
			t.Fatalf("IndexOf(%s) returned wrong slot %d", probe, at)
		}
	}
}

func TestNewRingRejectsDuplicates(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(5, 9))
	a, b := id.Random(rng), id.Random(rng)
	if _, err := NewRing([]id.ID{a, b, a}); err == nil {
		t.Fatal("NewRing accepted a duplicate member")
	}
	if _, err := NewRing(nil); err == nil {
		t.Fatal("NewRing accepted an empty member list")
	}
}

func TestNewRingRejectsBadInput(t *testing.T) {
	t.Parallel()
	if _, err := NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	x := id.MustParse("0123456789abcdef0123456789abcdef")
	if _, err := NewRing([]id.ID{x, x}); err == nil {
		t.Error("duplicate member accepted")
	}
}

// TestRingClosest pins the whole-ring search (prefix length 0) on hand
// cases: wraparound, an excluded winner, and a ring of one.
func TestRingClosest(t *testing.T) {
	t.Parallel()
	members := []id.ID{
		id.MustParse("10000000000000000000000000000000"),
		id.MustParse("20000000000000000000000000000000"),
		id.MustParse("f0000000000000000000000000000000"),
	}
	ring := mustRing(t, members)
	near := id.MustParse("22000000000000000000000000000000")
	if got, ok := ring.closestWithPrefixExcl(near, 0, -1); !ok || got != 1 {
		t.Errorf("closest to 22.. = %d,%v, want 1", got, ok)
	}
	// Across the wrap: 01.. is 0x0f.. from 10.. and 0x11.. from f0...
	if got, ok := ring.closestWithPrefixExcl(id.MustParse("01000000000000000000000000000000"), 0, -1); !ok || got != 0 {
		t.Errorf("closest near wrap = %d,%v, want 0", got, ok)
	}
	if got, ok := ring.closestWithPrefixExcl(id.MustParse("fe000000000000000000000000000000"), 0, 2); !ok || got != 0 {
		t.Errorf("closest past the wrap with f0.. excluded = %d,%v, want 0", got, ok)
	}
	// Exclude the best: the next best wins.
	if got, ok := ring.closestWithPrefixExcl(near, 0, 1); !ok || got != 0 {
		t.Errorf("closest with 20.. excluded = %d,%v, want 0", got, ok)
	}
	solo := mustRing(t, members[:1])
	if _, ok := solo.closestWithPrefixExcl(near, 0, 0); ok {
		t.Error("a ring of one with its member excluded returned a member")
	}
}

func TestRingClosestWithPrefix(t *testing.T) {
	t.Parallel()
	members := []id.ID{
		id.MustParse("ab000000000000000000000000000000"),
		id.MustParse("ab100000000000000000000000000000"),
		id.MustParse("ac000000000000000000000000000000"),
	}
	ring := mustRing(t, members)
	// abf8.. is 0x08.. from ac.. but 0xe8.. from ab1..: only the prefix
	// keeps ac.. out.
	target := id.MustParse("abf80000000000000000000000000000")
	if got, ok := ring.closestWithPrefixExcl(target, 0, -1); !ok || got != 2 {
		t.Errorf("closest overall = %d,%v, want 2 (ac..)", got, ok)
	}
	if got, ok := ring.closestWithPrefixExcl(target, 2, -1); !ok || got != 1 {
		t.Errorf("closest with prefix ab = %d,%v, want 1 (ab1..)", got, ok)
	}
	if got, ok := ring.closestWithPrefixExcl(target, 2, 1); !ok || got != 0 {
		t.Errorf("closest with prefix ab, ab1.. excluded = %d,%v, want 0", got, ok)
	}
	if _, ok := ring.closestWithPrefixExcl(id.MustParse("ff000000000000000000000000000000"), 2, -1); ok {
		t.Error("found a member with prefix ff")
	}
	if ring.hasOtherWithPrefix(id.MustParse("ac000000000000000000000000000000"), 2, 2) {
		t.Error("ac.. has no other member sharing its prefix")
	}
	if !ring.hasOtherWithPrefix(members[0], 2, 0) {
		t.Error("ab0.. shares prefix ab with ab1..")
	}
}

func TestRingClosestWithPrefixMatchesBruteForce(t *testing.T) {
	t.Parallel()
	r := testRand()
	ring := mustRing(t, randomIDs(300, r))
	for trial := 0; trial < 200; trial++ {
		target := id.Random(r)
		plen := r.IntN(4)
		got, ok := ring.closestWithPrefixExcl(target, plen, -1)
		want, found := bruteClosest(ring, target, plen, -1)
		if ok != found || (found && got != want) {
			t.Fatalf("trial %d: closestWithPrefixExcl(%s, %d) = %d,%v want %d,%v",
				trial, target.Short(), plen, got, ok, want, found)
		}
	}
}

// TestPropRingClosestWithSkipMatchesBruteForce: the whole-ring search
// with one member skipped — the prefix-0 case the secure fills reach —
// matches a scan on random rings.
func TestPropRingClosestWithSkipMatchesBruteForce(t *testing.T) {
	t.Parallel()
	r := testRand()
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.IntN(50)
		ring := mustRing(t, randomIDs(n, r))
		target := id.Random(r)
		if trial%3 == 0 {
			target = ring.Members()[r.IntN(n)]
		}
		excl := r.IntN(n)
		got, ok := ring.closestWithPrefixExcl(target, 0, excl)
		want, found := bruteClosest(ring, target, 0, excl)
		if ok != found || (found && got != want) {
			t.Fatalf("trial %d (n=%d, excl=%d): closest = %d,%v want %d,%v",
				trial, n, excl, got, ok, want, found)
		}
	}
}
