package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOr(t *testing.T) {
	t.Parallel()
	if got := Or(0.2, 0.6, 0.4); got != 0.6 {
		t.Errorf("Or = %v, want 0.6", got)
	}
	if got := Or(); got != 0 {
		t.Errorf("Or() = %v, want 0", got)
	}
	if got := Or(-1, 2); got != 1 {
		t.Errorf("Or clamps: %v, want 1", got)
	}
}

func TestNot(t *testing.T) {
	t.Parallel()
	if got := Not(0.3); got != 0.7 {
		t.Errorf("Not = %v", got)
	}
	if got := Not(-5); got != 1 {
		t.Errorf("Not clamps low: %v", got)
	}
}

// De Morgan: Not(Or(a,b)) == min(Not(a), Not(b)), with min the fuzzy
// AND dual to Or's max.
func TestPropDeMorgan(t *testing.T) {
	t.Parallel()
	f := func(a, b float64) bool {
		a, b = Clamp(a), Clamp(b)
		lhs := Not(Or(a, b))
		rhs := math.Min(Not(a), Not(b))
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Range: results always in [0,1].
func TestPropRange(t *testing.T) {
	t.Parallel()
	f := func(xs []float64) bool {
		v := Or(xs...)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
