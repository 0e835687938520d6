package overlay

import (
	"testing"

	"concilium/internal/id"
)

// The ring searches the table fills and churn refills call —
// closestWithPrefixExcl, splitArc and uniformWithPrefixExcl — answer
// from binary searches plus a constant number of probes. These
// properties pin each to a full scan of the ring.

func TestPropClosestWithPrefixExclMatchesBruteForce(t *testing.T) {
	t.Parallel()
	r := testRand()
	for trial := 0; trial < 400; trial++ {
		n := 2 + r.IntN(80)
		ids := randomIDs(n, r)
		ring := mustRing(t, ids)
		target := id.Random(r)
		if r.IntN(2) == 0 {
			// Half the trials aim at a member-derived point, the shape
			// the table fills produce (owner with one digit forced).
			owner := ids[r.IntN(n)]
			target = owner.WithDigit(r.IntN(3), byte(r.IntN(id.Base)))
		}
		plen := r.IntN(4)
		excl := r.IntN(n)
		got, ok := ring.closestWithPrefixExcl(target, plen, excl)
		want, found := bruteClosest(ring, target, plen, excl)
		if ok != found || (found && got != want) {
			t.Fatalf("trial %d (n=%d, plen=%d): closestWithPrefixExcl = %d,%v want %d,%v",
				trial, n, plen, got, ok, want, found)
		}
	}
}

// TestPropSplitArcMatchesBruteForce: on clustered rings, so that long
// shared prefixes reach the low word (rows ≥ 16) and the last rows,
// every digit sub-arc splitArc cuts from a member's row-r arc is
// exactly the members sharing that member's first r digits whose digit
// r is the column — and the arc arcBounds finds for that prefix.
func TestPropSplitArcMatchesBruteForce(t *testing.T) {
	t.Parallel()
	r := testRand()
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.IntN(120)
		ring := mustRing(t, clusteredIDs(n, r))
		at := r.IntN(n)
		owner := ring.Members()[at]
		row := r.IntN(id.Digits)
		if trial%2 == 0 {
			// Half the trials take a row the owner's arc still spans.
			row = r.IntN(1 + deepestShared(ring, at))
		}
		lo, hi := ring.arcBounds(owner, row)
		var cut [id.Base + 1]int
		ring.splitArc(lo, hi, row, &cut)
		for col := byte(0); col < id.Base; col++ {
			var want []int
			for i, x := range ring.Members() {
				if id.CommonPrefixLen(x, owner) >= row && x.Digit(row) == col {
					want = append(want, i)
				}
			}
			a, b := cut[col], cut[col+1]
			if b-a != len(want) || (len(want) > 0 && (a != want[0] || b-1 != want[len(want)-1])) {
				t.Fatalf("trial %d (n=%d, row=%d, col=%x): sub-arc [%d,%d), brute force %v",
					trial, n, row, col, a, b, want)
			}
			if len(want) == 0 {
				continue
			}
			if plo, phi := ring.arcBounds(owner.WithDigit(row, col), row+1); plo != a || phi != b {
				t.Fatalf("trial %d (n=%d, row=%d, col=%x): sub-arc [%d,%d), arcBounds [%d,%d)",
					trial, n, row, col, a, b, plo, phi)
			}
		}
	}
}

// deepestShared returns the longest prefix the member at position at
// shares with any other member (0 on a ring of one).
func deepestShared(ring *Ring, at int) int {
	deepest := 0
	for i, x := range ring.Members() {
		if i != at {
			deepest = max(deepest, id.CommonPrefixLen(x, ring.Members()[at]))
		}
	}
	return min(deepest, id.Digits-1)
}

// TestPropUniformWithPrefixExcl checks the single-draw uniform pick:
// every returned candidate qualifies (prefix match, not the excluded
// member), no draw is spent when nothing qualifies, and across many
// draws every qualifying candidate is drawn within half to one and a
// half times its fair share — the index shift around the excluded
// member must neither shadow nor double anyone.
func TestPropUniformWithPrefixExcl(t *testing.T) {
	t.Parallel()
	r := testRand()
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.IntN(40)
		ring := mustRing(t, randomIDs(n, r))
		at := r.IntN(n)
		owner := ring.Members()[at]
		plen := r.IntN(3)
		target := owner.WithDigit(plen, byte(r.IntN(id.Base)))
		qualify := map[int]bool{}
		for i, x := range ring.Members() {
			if i != at && id.CommonPrefixLen(x, target) >= plen {
				qualify[i] = true
			}
		}
		if len(qualify) == 0 {
			draws := &countingRand{r: r}
			if _, ok := ring.uniformWithPrefixExcl(target, plen, at, draws); ok || draws.n != 0 {
				t.Fatalf("trial %d: no qualifying candidate, yet ok=%v after %d draws", trial, ok, draws.n)
			}
			continue
		}
		const perCandidate = 200
		seen := map[int]int{}
		for draw := 0; draw < perCandidate*len(qualify); draw++ {
			got, ok := ring.uniformWithPrefixExcl(target, plen, at, r)
			if !ok || !qualify[got] {
				t.Fatalf("trial %d: drew %d,%v (owner at %d, plen=%d)", trial, got, ok, at, plen)
			}
			seen[got]++
		}
		for i := range qualify {
			if c := seen[i]; c < perCandidate/2 || c > perCandidate*3/2 {
				t.Fatalf("trial %d: candidate %d drawn %d times, want ≈%d", trial, i, c, perCandidate)
			}
		}
	}
}

type countingRand struct {
	r interface{ IntN(int) int }
	n int
}

func (c *countingRand) IntN(k int) int {
	c.n++
	return c.r.IntN(k)
}
