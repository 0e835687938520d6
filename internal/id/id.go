// Package id implements the overlay identifier space used by Concilium's
// secure Pastry substrate.
//
// Identifiers are 128-bit values interpreted as ℓ = 32 digits in base
// v = 16, matching the parameters the paper calls "typical" (§3.1).
// The package provides the prefix arithmetic used by jump tables, the
// ring arithmetic used by leaf sets, and the "target point" construction
// used by secure routing-table constraints.
//
// Internally every hot operation runs on the word-pair view of an
// identifier — two big-endian uint64 halves — so prefix length is one
// XOR plus a leading-zero count and comparisons are two integer
// compares, instead of byte loops. The [16]byte representation remains
// the storage and wire format.
package id

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
)

const (
	// Bytes is the identifier length in bytes.
	Bytes = 16
	// Digits is ℓ, the number of base-v digits in an identifier.
	Digits = 32
	// Base is v, the radix of each digit.
	Base = 16
	// BitsPerDigit is log2(Base).
	BitsPerDigit = 4
)

// ID is a 128-bit overlay identifier. IDs are values; they are comparable
// with == and usable as map keys.
type ID [Bytes]byte

// Zero is the all-zero identifier.
var Zero ID

// Max is the all-ones identifier, the numerically largest point on the ring.
var Max = ID{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// Pair is the word-pair view of an identifier: Hi holds digits 0–15 and
// Lo digits 16–31, both big-endian. All ring and prefix arithmetic runs
// on this form.
type Pair struct{ Hi, Lo uint64 }

// Pair decomposes the identifier into its two big-endian words.
func (a ID) Pair() Pair {
	return Pair{
		Hi: binary.BigEndian.Uint64(a[0:8]),
		Lo: binary.BigEndian.Uint64(a[8:16]),
	}
}

// ID recomposes the word pair into the byte representation.
func (p Pair) ID() ID {
	var a ID
	binary.BigEndian.PutUint64(a[0:8], p.Hi)
	binary.BigEndian.PutUint64(a[8:16], p.Lo)
	return a
}

// Parse decodes a 32-character hexadecimal identifier.
func Parse(s string) (ID, error) {
	var out ID
	if len(s) != Digits {
		return out, fmt.Errorf("id: need %d hex digits, got %d", Digits, len(s))
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return out, fmt.Errorf("id: parse %q: %w", s, err)
	}
	copy(out[:], raw)
	return out, nil
}

// MustParse is Parse for test fixtures and constants; it panics on error.
func MustParse(s string) ID {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String renders the identifier as 32 lowercase hex digits.
func (a ID) String() string { return hex.EncodeToString(a[:]) }

// Short renders the first 8 digits, for logs.
func (a ID) Short() string { return hex.EncodeToString(a[:4]) }

// Digit returns the i-th base-16 digit, with digit 0 being the most
// significant. It panics if i is outside [0, Digits).
func (a ID) Digit(i int) byte {
	if i < 0 || i >= Digits {
		panic(fmt.Sprintf("id: digit index %d out of range", i))
	}
	var w uint64
	if i < Digits/2 {
		w = binary.BigEndian.Uint64(a[0:8])
	} else {
		w = binary.BigEndian.Uint64(a[8:16])
		i -= Digits / 2
	}
	return byte(w>>(60-BitsPerDigit*i)) & 0x0f
}

// WithDigit returns a copy of the identifier with digit i replaced by d.
// Secure Pastry uses this to build the "target point" p for jump-table
// slot (i, j): the local identifier with its i-th digit set to j (§2).
func (a ID) WithDigit(i int, d byte) ID {
	if i < 0 || i >= Digits {
		panic(fmt.Sprintf("id: digit index %d out of range", i))
	}
	if d >= Base {
		panic(fmt.Sprintf("id: digit value %d out of range", d))
	}
	out := a
	half := out[0:8]
	if i >= Digits/2 {
		half = out[8:16]
		i -= Digits / 2
	}
	shift := uint(60 - BitsPerDigit*i)
	w := binary.BigEndian.Uint64(half)
	w = w&^(uint64(0x0f)<<shift) | uint64(d)<<shift
	binary.BigEndian.PutUint64(half, w)
	return out
}

// CommonPrefixLen returns the number of leading base-16 digits shared by
// a and b. Identical identifiers share all Digits digits.
func CommonPrefixLen(a, b ID) int {
	pa, pb := a.Pair(), b.Pair()
	if x := pa.Hi ^ pb.Hi; x != 0 {
		return bits.LeadingZeros64(x) / BitsPerDigit
	}
	if x := pa.Lo ^ pb.Lo; x != 0 {
		return Digits/2 + bits.LeadingZeros64(x)/BitsPerDigit
	}
	return Digits
}

// Cmp compares a and b as 128-bit big-endian unsigned integers, returning
// -1, 0, or +1.
func Cmp(a, b ID) int {
	pa, pb := a.Pair(), b.Pair()
	switch {
	case pa.Hi < pb.Hi:
		return -1
	case pa.Hi > pb.Hi:
		return 1
	case pa.Lo < pb.Lo:
		return -1
	case pa.Lo > pb.Lo:
		return 1
	}
	return 0
}

// Less reports whether a < b numerically.
func Less(a, b ID) bool {
	pa, pb := a.Pair(), b.Pair()
	if pa.Hi != pb.Hi {
		return pa.Hi < pb.Hi
	}
	return pa.Lo < pb.Lo
}

// Less reports whether p < q numerically — the word-pair form of Less,
// for callers that keep identifiers decomposed.
func (p Pair) Less(q Pair) bool {
	if p.Hi != q.Hi {
		return p.Hi < q.Hi
	}
	return p.Lo < q.Lo
}

// Digit returns the i-th base-16 digit of p, digit 0 being the most
// significant: the word-pair form of ID.Digit, reading rows ≥ Digits/2
// from the low word. It panics if i is outside [0, Digits).
func (p Pair) Digit(i int) byte {
	if uint(i) >= Digits {
		panic("id: digit index out of range")
	}
	w := p.Hi
	if i >= Digits/2 {
		w, i = p.Lo, i-Digits/2
	}
	return byte(w>>(60-BitsPerDigit*i)) & 0x0f
}

// PrefixRange returns the numeric bounds [lo, hi] of identifiers
// sharing p's first prefixLen digits: p with every trailing digit
// cleared and with every trailing digit saturated, as two word masks.
// This replaces the digit-by-digit WithDigit loop on the table-fill hot
// path — one shift per word instead of up to 32 masked stores.
func (p Pair) PrefixRange(prefixLen int) (lo, hi Pair) {
	b := prefixLen * BitsPerDigit
	switch {
	case b <= 0:
		return Pair{}, Pair{Hi: ^uint64(0), Lo: ^uint64(0)}
	case b < 64:
		m := ^uint64(0) >> b
		return Pair{Hi: p.Hi &^ m}, Pair{Hi: p.Hi | m, Lo: ^uint64(0)}
	case b == 64:
		return Pair{Hi: p.Hi}, Pair{Hi: p.Hi, Lo: ^uint64(0)}
	case b < 2*64:
		m := ^uint64(0) >> (b - 64)
		return Pair{Hi: p.Hi, Lo: p.Lo &^ m}, Pair{Hi: p.Hi, Lo: p.Lo | m}
	}
	return p, p
}

func subPair(a, b Pair) Pair {
	lo, borrow := bits.Sub64(a.Lo, b.Lo, 0)
	hi, _ := bits.Sub64(a.Hi, b.Hi, borrow)
	return Pair{Hi: hi, Lo: lo}
}

func cmpPair(a, b Pair) int {
	switch {
	case a.Hi != b.Hi:
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	case a.Lo < b.Lo:
		return -1
	case a.Lo > b.Lo:
		return 1
	}
	return 0
}

// Closer reports whether a is strictly closer to target than b is, by
// minimal ring distance. Ties (equal distances) favour the numerically
// smaller identifier so that "closest node" is a total order; secure
// Pastry needs a deterministic answer for its constrained-table checks.
func Closer(a, b, target ID) bool {
	pa, pb, pt := a.Pair(), b.Pair(), target.Pair()
	da := minPair(subPair(pt, pa), subPair(pa, pt))
	db := minPair(subPair(pt, pb), subPair(pb, pt))
	switch cmpPair(da, db) {
	case -1:
		return true
	case 1:
		return false
	default:
		return cmpPair(pa, pb) < 0
	}
}

func minPair(a, b Pair) Pair {
	if cmpPair(a, b) <= 0 {
		return a
	}
	return b
}

// Between reports whether x lies on the clockwise arc (lo, hi], treating
// the identifier space as a ring. If lo == hi the arc is the full ring.
func Between(x, lo, hi ID) bool {
	if lo == hi {
		return true
	}
	if x == lo {
		return false
	}
	pl := lo.Pair()
	cwLoHi := subPair(hi.Pair(), pl)
	cwLoX := subPair(x.Pair(), pl)
	return cmpPair(cwLoX, cwLoHi) <= 0
}

// Add returns a + delta on the ring (mod 2^128).
func Add(a, delta ID) ID {
	pa, pd := a.Pair(), delta.Pair()
	lo, carry := bits.Add64(pa.Lo, pd.Lo, 0)
	hi, _ := bits.Add64(pa.Hi, pd.Hi, carry)
	return Pair{Hi: hi, Lo: lo}.ID()
}

// Spacing returns the clockwise gap from a to b as a float64. The value
// is approximate (128-bit range flattened to float64) but is only used
// for the density estimators in §2 and §3.1, where relative magnitudes
// are all that matter.
func Spacing(a, b ID) float64 {
	u := subPair(b.Pair(), a.Pair())
	return float64(u.Hi)*0x1p64 + float64(u.Lo)
}

// RingSize is the total number of points on the ring, as a float64.
const RingSize = 0x1p128

// RandSource is the subset of a random generator the package needs.
// Both math/rand/v2's generators and crypto-seeded sources satisfy it.
type RandSource interface {
	Uint64() uint64
}

// Random draws an identifier uniformly at random from src. The paper's
// central authority assigns identifiers "randomly" (§2); experiments use
// seeded sources for reproducibility while the live CA uses crypto/rand.
func Random(src RandSource) ID {
	return Pair{Hi: src.Uint64(), Lo: src.Uint64()}.ID()
}
