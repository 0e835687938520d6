package id

import (
	"math/rand/v2"
	"testing"
)

// Legacy byte-wise reference implementations. The word-pair versions in
// id.go must be bit-identical to these across the whole input space;
// the property tests and the fuzz harness below enforce that.

func refCommonPrefixLen(a, b ID) int {
	for i := 0; i < Bytes; i++ {
		x := a[i] ^ b[i]
		if x == 0 {
			continue
		}
		if x&0xf0 != 0 {
			return 2 * i
		}
		return 2*i + 1
	}
	return Digits
}

func refCmp(a, b ID) int {
	for i := 0; i < Bytes; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

func refDigit(a ID, i int) byte {
	b := a[i/2]
	if i%2 == 0 {
		return b >> 4
	}
	return b & 0x0f
}

func refWithDigit(a ID, i int, d byte) ID {
	out := a
	if i%2 == 0 {
		out[i/2] = (out[i/2] & 0x0f) | (d << 4)
	} else {
		out[i/2] = (out[i/2] & 0xf0) | d
	}
	return out
}

type refU128 struct{ hi, lo uint64 }

func refToU128(a ID) refU128 {
	var u refU128
	for i := 0; i < 8; i++ {
		u.hi = u.hi<<8 | uint64(a[i])
		u.lo = u.lo<<8 | uint64(a[i+8])
	}
	return u
}

func refFromU128(u refU128) ID {
	var a ID
	for i := 7; i >= 0; i-- {
		a[i] = byte(u.hi)
		a[i+8] = byte(u.lo)
		u.hi >>= 8
		u.lo >>= 8
	}
	return a
}

func refClockwise(a, b ID) ID {
	ua, ub := refToU128(a), refToU128(b)
	var borrow uint64
	lo := ub.lo - ua.lo
	if ub.lo < ua.lo {
		borrow = 1
	}
	hi := ub.hi - ua.hi - borrow
	return refFromU128(refU128{hi: hi, lo: lo})
}

// checkPairEquivalence asserts every word-pair primitive matches its
// byte-wise reference on one (a, b) pair.
func checkPairEquivalence(t *testing.T, a, b ID) {
	t.Helper()
	if got, want := CommonPrefixLen(a, b), refCommonPrefixLen(a, b); got != want {
		t.Errorf("CommonPrefixLen(%s, %s) = %d, reference %d", a, b, got, want)
	}
	if got, want := Cmp(a, b), refCmp(a, b); got != want {
		t.Errorf("Cmp(%s, %s) = %d, reference %d", a, b, got, want)
	}
	if got, want := Less(a, b), refCmp(a, b) < 0; got != want {
		t.Errorf("Less(%s, %s) = %v, reference %v", a, b, got, want)
	}
	// Round trip through the word-pair view is the identity.
	if rt := a.Pair().ID(); rt != a {
		t.Errorf("Pair round trip of %s produced %s", a, rt)
	}
	if u, p := refToU128(a), a.Pair(); u.hi != p.Hi || u.lo != p.Lo {
		t.Errorf("Pair of %s disagrees with byte-wise decomposition", a)
	}
	for i := 0; i < Digits; i++ {
		if got, want := a.Digit(i), refDigit(a, i); got != want {
			t.Fatalf("%s.Digit(%d) = %x, reference %x", a, i, got, want)
		}
		if got, want := a.Pair().Digit(i), a.Digit(i); got != want {
			t.Fatalf("%s.Pair().Digit(%d) = %x, ID.Digit %x", a, i, got, want)
		}
		d := b.Digit(i) // arbitrary but deterministic replacement digit
		if got, want := a.WithDigit(i, d), refWithDigit(a, i, d); got != want {
			t.Fatalf("%s.WithDigit(%d, %x) = %s, reference %s", a, i, d, got, want)
		}
	}
}

// adjacentIDs returns x-1 and x+1 on the ring (wrapping).
func adjacentIDs(x ID) (ID, ID) {
	one := ID{}
	one[Bytes-1] = 1
	minusOne := Max // 2^128 - 1 acts as -1 mod 2^128
	return Add(x, minusOne), Add(x, one)
}

func TestWordPairMatchesByteReferenceEdgeCases(t *testing.T) {
	t.Parallel()
	carrier := MustParse("00ffffffffffffffffffffffffffffff")
	halfLo, halfHi := adjacentIDs(MustParse("80000000000000000000000000000000"))
	wordEdgeLo, wordEdgeHi := adjacentIDs(MustParse("00000000000000010000000000000000"))
	edges := []ID{
		Zero, Max, carrier, halfLo, halfHi, wordEdgeLo, wordEdgeHi,
		MustParse("0123456789abcdef0123456789abcdef"),
	}
	var more []ID
	for _, x := range edges {
		lo, hi := adjacentIDs(x)
		more = append(more, x, lo, hi)
	}
	for _, a := range more {
		for _, b := range more {
			checkPairEquivalence(t, a, b)
		}
	}
}

func TestWordPairMatchesByteReferenceRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(7, 1))
	for trial := 0; trial < 2000; trial++ {
		a, b := Random(rng), Random(rng)
		if trial%5 == 0 {
			// Force long shared prefixes: random pairs almost never
			// exercise deep CommonPrefixLen rows.
			cut := rng.IntN(Digits)
			b = a
			for i := cut; i < Digits; i++ {
				b = b.WithDigit(i, byte(rng.IntN(Base)))
			}
		}
		checkPairEquivalence(t, a, b)
	}
}

// FuzzWordPairEquivalence lets the fuzzer hunt for any (a, b) where the
// word-pair arithmetic diverges from the byte-wise reference.
func FuzzWordPairEquivalence(f *testing.F) {
	f.Add(Zero[:], Max[:])
	f.Add(Max[:], Max[:])
	seed := MustParse("0123456789abcdef0123456789abcdef")
	lo, hi := adjacentIDs(seed)
	f.Add(seed[:], lo[:])
	f.Add(hi[:], seed[:])
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		if len(rawA) != Bytes || len(rawB) != Bytes {
			t.Skip()
		}
		var a, b ID
		copy(a[:], rawA)
		copy(b[:], rawB)
		checkPairEquivalence(t, a, b)
	})
}
