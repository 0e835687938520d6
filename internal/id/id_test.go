package id

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestParseRoundTrip(t *testing.T) {
	t.Parallel()
	cases := []string{
		"00000000000000000000000000000000",
		"ffffffffffffffffffffffffffffffff",
		"0123456789abcdef0123456789abcdef",
		"80000000000000000000000000000000",
	}
	for _, s := range cases {
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got.String() != s {
			t.Errorf("round trip %q -> %q", s, got.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	bad := []string{"", "abc", "zz000000000000000000000000000000",
		"0123456789abcdef0123456789abcde", // 31 digits
		"0123456789abcdef0123456789abcdef0"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = nil error, want failure", s)
		}
	}
}

func TestFromBytes(t *testing.T) {
	t.Parallel()
	if _, err := FromBytes(make([]byte, 15)); err == nil {
		t.Error("FromBytes(15 bytes) should fail")
	}
	b := make([]byte, 16)
	b[0] = 0xab
	got, err := FromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digit(0) != 0xa || got.Digit(1) != 0xb {
		t.Errorf("digits = %d,%d want 10,11", got.Digit(0), got.Digit(1))
	}
}

func TestDigitAndWithDigit(t *testing.T) {
	t.Parallel()
	a := MustParse("0123456789abcdef0123456789abcdef")
	want := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	for i := 0; i < 16; i++ {
		if a.Digit(i) != want[i] {
			t.Errorf("Digit(%d) = %d, want %d", i, a.Digit(i), want[i])
		}
	}
	for i := 0; i < Digits; i++ {
		for d := byte(0); d < Base; d++ {
			m := a.WithDigit(i, d)
			if m.Digit(i) != d {
				t.Fatalf("WithDigit(%d,%d).Digit = %d", i, d, m.Digit(i))
			}
			// All other digits untouched.
			for j := 0; j < Digits; j++ {
				if j != i && m.Digit(j) != a.Digit(j) {
					t.Fatalf("WithDigit(%d,%d) disturbed digit %d", i, d, j)
				}
			}
		}
	}
}

func TestDigitPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("Digit(-1) did not panic")
		}
	}()
	Zero.Digit(-1)
}

func TestPairDigitPanics(t *testing.T) {
	t.Parallel()
	for _, i := range []int{-1, Digits} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pair.Digit(%d) did not panic", i)
				}
			}()
			Zero.Pair().Digit(i)
		}()
	}
}

func TestWithDigitPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("WithDigit(0,16) did not panic")
		}
	}()
	Zero.WithDigit(0, 16)
}

func TestCommonPrefixLen(t *testing.T) {
	t.Parallel()
	tests := []struct {
		a, b string
		want int
	}{
		{"00000000000000000000000000000000", "00000000000000000000000000000000", 32},
		{"00000000000000000000000000000000", "80000000000000000000000000000000", 0},
		{"00000000000000000000000000000000", "08000000000000000000000000000000", 1},
		{"abcdef00000000000000000000000000", "abcdee00000000000000000000000000", 5},
		{"abcdef00000000000000000000000000", "abcdef00000000000000000000000001", 31},
	}
	for _, tc := range tests {
		got := CommonPrefixLen(MustParse(tc.a), MustParse(tc.b))
		if got != tc.want {
			t.Errorf("CommonPrefixLen(%s, %s) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCmpAndLess(t *testing.T) {
	t.Parallel()
	a := MustParse("00000000000000000000000000000001")
	b := MustParse("00000000000000000000000000000002")
	if Cmp(a, b) != -1 || Cmp(b, a) != 1 || Cmp(a, a) != 0 {
		t.Error("Cmp ordering wrong")
	}
	if !Less(a, b) || Less(b, a) || Less(a, a) {
		t.Error("Less ordering wrong")
	}
}

func TestClockwiseWraps(t *testing.T) {
	t.Parallel()
	a := MustParse("ffffffffffffffffffffffffffffffff")
	b := MustParse("00000000000000000000000000000001")
	got := Clockwise(a, b)
	want := MustParse("00000000000000000000000000000002")
	if got != want {
		t.Errorf("Clockwise wrap = %s, want %s", got, want)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	t.Parallel()
	a := MustParse("00000000000000000000000000000010")
	b := MustParse("fffffffffffffffffffffffffffffff0")
	d1, d2 := Distance(a, b), Distance(b, a)
	if d1 != d2 {
		t.Errorf("Distance not symmetric: %s vs %s", d1, d2)
	}
	want := MustParse("00000000000000000000000000000020")
	if d1 != want {
		t.Errorf("Distance = %s, want %s", d1, want)
	}
}

func TestCloser(t *testing.T) {
	t.Parallel()
	target := MustParse("80000000000000000000000000000000")
	near := MustParse("80000000000000000000000000000010")
	far := MustParse("90000000000000000000000000000000")
	if !Closer(near, far, target) {
		t.Error("near should be closer than far")
	}
	if Closer(far, near, target) {
		t.Error("far should not be closer than near")
	}
	// Tie: equidistant points resolve to the numerically smaller ID.
	lo := MustParse("7fffffffffffffffffffffffffffffff")
	hi := MustParse("80000000000000000000000000000001")
	if !Closer(lo, hi, target) {
		t.Error("tie should favour numerically smaller id")
	}
}

func TestBetween(t *testing.T) {
	t.Parallel()
	lo := MustParse("10000000000000000000000000000000")
	hi := MustParse("20000000000000000000000000000000")
	in := MustParse("18000000000000000000000000000000")
	out := MustParse("30000000000000000000000000000000")
	if !Between(in, lo, hi) {
		t.Error("in should be inside (lo, hi]")
	}
	if Between(out, lo, hi) {
		t.Error("out should be outside (lo, hi]")
	}
	if Between(lo, lo, hi) {
		t.Error("arc is exclusive of lo")
	}
	if !Between(hi, lo, hi) {
		t.Error("arc is inclusive of hi")
	}
	// Wrapping arc.
	if !Between(MustParse("00000000000000000000000000000001"), hi, lo) {
		t.Error("wrapping arc should contain small ids")
	}
	// Degenerate full ring.
	if !Between(out, lo, lo) {
		t.Error("lo==hi means full ring")
	}
}

func TestAdd(t *testing.T) {
	t.Parallel()
	a := Max
	one := MustParse("00000000000000000000000000000001")
	if got := Add(a, one); got != Zero {
		t.Errorf("Max+1 = %s, want zero", got)
	}
}

func TestSpacing(t *testing.T) {
	t.Parallel()
	a := Zero
	b := MustParse("00000000000000000000000000000100")
	if got := Spacing(a, b); got != 256 {
		t.Errorf("Spacing = %v, want 256", got)
	}
	// Full-ring spacing of equal points is zero.
	if got := Spacing(a, a); got != 0 {
		t.Errorf("Spacing(a,a) = %v, want 0", got)
	}
}

func TestRandomUsesSource(t *testing.T) {
	t.Parallel()
	r1 := rand.New(rand.NewPCG(1, 2))
	r2 := rand.New(rand.NewPCG(1, 2))
	if Random(r1) != Random(r2) {
		t.Error("same seed must give same identifier")
	}
	r3 := rand.New(rand.NewPCG(3, 4))
	if Random(r1) == Random(r3) {
		t.Error("different seeds should give different identifiers")
	}
}

// Property: Clockwise(a,b) + Clockwise(b,a) == 0 (mod 2^128) unless a == b.
func TestPropClockwiseComplement(t *testing.T) {
	t.Parallel()
	f := func(ab [2][16]byte) bool {
		a, b := ID(ab[0]), ID(ab[1])
		sum := Add(Clockwise(a, b), Clockwise(b, a))
		return sum == Zero
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Distance is bounded by half the ring.
func TestPropDistanceBounded(t *testing.T) {
	t.Parallel()
	half := MustParse("80000000000000000000000000000000")
	f := func(ab [2][16]byte) bool {
		d := Distance(ID(ab[0]), ID(ab[1]))
		return Cmp(d, half) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CommonPrefixLen(a,b) == Digits iff a == b, and prefix digits match.
func TestPropPrefixConsistent(t *testing.T) {
	t.Parallel()
	f := func(ab [2][16]byte) bool {
		a, b := ID(ab[0]), ID(ab[1])
		n := CommonPrefixLen(a, b)
		if (n == Digits) != (a == b) {
			return false
		}
		for i := 0; i < n; i++ {
			if a.Digit(i) != b.Digit(i) {
				return false
			}
		}
		if n < Digits && a.Digit(n) == b.Digit(n) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add(a, Clockwise(a, b)) == b — clockwise distance really is
// the ring increment.
func TestPropAddClockwise(t *testing.T) {
	t.Parallel()
	f := func(ab [2][16]byte) bool {
		a, b := ID(ab[0]), ID(ab[1])
		return Add(a, Clockwise(a, b)) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Micro-benchmarks for the word-pair primitives live in bench_test.go.
