package overlay

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"concilium/internal/id"
	"concilium/internal/stats"
)

// specFillNode is the per-slot fill FillNode replaced, kept as its
// spec: every secure slot row-major from its own whole-ring prefix
// search, stopping after the first row past which no other member
// shares i's prefix, then every standard slot of all rows with one
// uniform draw each.
func specFillNode(c *Compact, i uint32, rng stats.Rand) {
	self := c.ring.ids[i]
	for row := 0; row < id.Digits; row++ {
		own := self.Digit(row)
		for col := byte(0); col < id.Base; col++ {
			if col == own {
				continue
			}
			if cand, ok := c.ring.closestWithPrefixExcl(self.WithDigit(row, col), row+1, int(i)); ok {
				c.secure.set(c.denseRows, i, row, col, c.slabAt[cand])
			}
		}
		if lo, hi := c.ring.arcBounds(self, row+1); hi-lo == 1 {
			break
		}
	}
	for row := 0; row < id.Digits; row++ {
		own := self.Digit(row)
		for col := byte(0); col < id.Base; col++ {
			if col == own {
				continue
			}
			if cand, ok := c.ring.uniformWithPrefixExcl(self.WithDigit(row, col), row+1, int(i), rng); ok {
				c.standard.set(c.denseRows, i, row, col, c.slabAt[cand])
			}
		}
	}
}

// TestFillNodeMatchesSpec: on clustered rings of 2–200 members, FillNode
// fills both tables slot for slot as specFillNode does and leaves the
// node's random stream at the same point.
func TestFillNodeMatchesSpec(t *testing.T) {
	t.Parallel()
	r := testRand()
	for trial := 0; trial < 300; trial++ {
		members := clusteredIDs(2+r.IntN(199), r)
		spec, err := NewCompact(members, DefaultLeafSetPerSide)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewCompact(members, DefaultLeafSetPerSide)
		if err != nil {
			t.Fatal(err)
		}
		seed := r.Uint64()
		specRng := rand.New(rand.NewPCG(seed, 1))
		gotRng := rand.New(rand.NewPCG(seed, 1))
		for i := uint32(0); i < uint32(got.Size()); i++ {
			specFillNode(spec, i, specRng)
			got.FillNode(i, gotRng)
			for _, kind := range []struct {
				name      string
				want, got []CompactSlot
			}{
				{"secure", spec.AppendSecureSlots(i, nil), got.AppendSecureSlots(i, nil)},
				{"standard", spec.AppendStandardSlots(i, nil), got.AppendStandardSlots(i, nil)},
			} {
				if !slices.Equal(kind.got, kind.want) {
					t.Fatalf("trial %d (n=%d) node %d: %s table\n got %v\nwant %v",
						trial, got.Size(), i, kind.name, kind.got, kind.want)
				}
			}
			if a, b := gotRng.Uint64(), specRng.Uint64(); a != b {
				t.Fatalf("trial %d (n=%d) node %d: next draw %#x, spec %#x", trial, got.Size(), i, a, b)
			}
		}
		mustInvariants(t, got, fmt.Sprintf("trial %d", trial))
	}
}

// TestFillNodeAllocatesNothing: refilling every node of a built overlay
// allocates nothing. The first fill may grow the sparse tails; a refill
// finds the same slots occupied and overwrites them in place.
func TestFillNodeAllocatesNothing(t *testing.T) {
	c := buildCompact(t, 2000, 3)
	rng := rand.New(rand.NewPCG(3, 3))
	allocs := testing.AllocsPerRun(3, func() {
		for i := uint32(0); i < uint32(c.Size()); i++ {
			c.FillNode(i, rng)
		}
	})
	if allocs != 0 {
		t.Fatalf("refilling %d nodes allocated %v times, want 0", c.Size(), allocs)
	}
}

// BenchmarkFillNode times one node's fill of both tables, cycling over
// the ring of a built overlay.
func BenchmarkFillNode(b *testing.B) {
	for _, n := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			c := buildCompact(b, n, 1)
			rng := rand.New(rand.NewPCG(1, 1))
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				c.FillNode(uint32(k%n), rng)
			}
		})
	}
}
