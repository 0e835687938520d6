package experiments

import (
	"fmt"

	"concilium/internal/core"
	"concilium/internal/parexec"
	"concilium/internal/stats"
)

// Fig1Config parameterizes the jump-table occupancy experiment: the
// analytic φ(μφ, σφ) model against Monte Carlo simulation of random
// identifier assignment, across overlay sizes.
type Fig1Config struct {
	// Ns are the overlay sizes to evaluate.
	Ns []int
	// Trials is the number of Monte Carlo tables per size.
	Trials int
	// Workers bounds the Monte Carlo worker pool (<= 0 selects
	// GOMAXPROCS). Results are bit-identical for every worker count:
	// each trial draws from its own substream of the experiment seed.
	Workers int
}

// DefaultFig1Config sweeps powers of two from 128 to 131072.
func DefaultFig1Config() Fig1Config {
	var ns []int
	for n := 128; n <= 131072; n *= 2 {
		ns = append(ns, n)
	}
	return Fig1Config{Ns: ns, Trials: 200}
}

// Validate reports the first invalid field.
func (c Fig1Config) Validate() error {
	if len(c.Ns) == 0 {
		return fmt.Errorf("experiments: fig1 needs at least one overlay size")
	}
	for _, n := range c.Ns {
		if n <= 1 {
			return fmt.Errorf("experiments: fig1 overlay size %d must exceed 1", n)
		}
	}
	if c.Trials <= 1 {
		return fmt.Errorf("experiments: fig1 trials %d must exceed 1", c.Trials)
	}
	return nil
}

// Fig1Result holds both series: occupied-slot counts with spread.
type Fig1Result struct {
	Analytic   Series
	MonteCarlo Series
}

// Fig1 runs the experiment.
func Fig1(cfg Fig1Config, rng stats.Rand) (*Fig1Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Fig1Result{
		Analytic:   Series{Name: "analytic phi(mu,sigma)"},
		MonteCarlo: Series{Name: "monte carlo"},
	}
	for _, n := range cfg.Ns {
		approx, err := core.NormalApprox(n)
		if err != nil {
			return nil, err
		}
		res.Analytic.X = append(res.Analytic.X, float64(n))
		res.Analytic.Y = append(res.Analytic.Y, approx.Mu)
		res.Analytic.YErr = append(res.Analytic.YErr, approx.Sigma)

		// One root seed per size is drawn serially from the experiment
		// rng; the per-trial substreams derived from it make the Monte
		// Carlo independent of the worker count.
		seed := parexec.SeedFrom(rng)
		mcMean, mcStd, err := core.MonteCarloOccupancy(n, cfg.Trials, cfg.Workers, seed)
		if err != nil {
			return nil, err
		}
		res.MonteCarlo.X = append(res.MonteCarlo.X, float64(n))
		res.MonteCarlo.Y = append(res.MonteCarlo.Y, mcMean)
		res.MonteCarlo.YErr = append(res.MonteCarlo.YErr, mcStd)
	}
	return res, nil
}

// MaxMeanError returns the largest absolute gap between analytic and
// Monte Carlo means — the quantity Figure 1 argues is small.
func (r *Fig1Result) MaxMeanError() float64 {
	var worst float64
	for i := range r.Analytic.Y {
		d := r.Analytic.Y[i] - r.MonteCarlo.Y[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
