package campaign

import "concilium/internal/core"

// dropperStrategy is the Byzantine-forwarder baseline: selective and
// probabilistic droppers tuned to hover at the edge of the (w,m)
// sliding window. Even-indexed attackers drop deterministically every
// DropPeriod-th message — the pattern a naive rate detector misses but
// the verdict window still accumulates — and odd-indexed ones drop
// probabilistically (DropProb per forward). The deterministic variant
// goes first so the single-attacker cell measures the window against
// guaranteed misbehavior, not a run of lucky coin flips.
type dropperStrategy struct{}

func (dropperStrategy) Name() string { return "selective-drop" }

func (dropperStrategy) Setup(env *Env) error {
	for i, a := range env.Attackers {
		b := core.Behavior{DropPeriod: env.Cfg.DropPeriod}
		if i%2 == 1 {
			b = core.Behavior{DropProb: env.Cfg.DropProb}
		}
		if err := env.sys.SetBehavior(a, b); err != nil {
			return err
		}
	}
	return nil
}

// Round is empty: the dropper attacks only through the forwarding
// path, which the traffic loop exercises.
func (dropperStrategy) Round(*Env, int) error { return nil }

func (dropperStrategy) Curve(env *Env) ([]ROCPoint, ROCPoint, error) {
	return env.windowCurve()
}
