// Package fuzzy provides the fuzzy-logic connectives Concilium's blame
// equation uses (§3.4, after Bellman and Giertz): OR is max, NOT is
// complement. Operands are confidences in [0, 1]; out-of-range
// inputs are clamped rather than rejected, since they only arise from
// floating-point drift in upstream averages.
package fuzzy

// Clamp forces x into [0, 1].
func Clamp(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

// Or returns the fuzzy disjunction (maximum) of the operands, 0 if none.
func Or(xs ...float64) float64 {
	var out float64
	for _, x := range xs {
		if v := Clamp(x); v > out {
			out = v
		}
	}
	return out
}

// Not returns the fuzzy complement.
func Not(x float64) float64 { return 1 - Clamp(x) }
