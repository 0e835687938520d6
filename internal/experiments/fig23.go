package experiments

import (
	"fmt"

	"concilium/internal/core"
	"concilium/internal/parexec"
)

// Fig23Config parameterizes the density-test error experiments:
// Figure 2 (no suppression) and Figure 3 (suppression attacks).
type Fig23Config struct {
	// N is the overlay size (the paper's evaluation overlay has 1,131).
	N int
	// Collusions are the colluding fractions c to evaluate.
	Collusions []float64
	// Gammas is the γ sweep for the per-γ curves.
	Gammas []float64
	// Suppression toggles the Figure 3 variant.
	Suppression bool
	// Workers bounds the worker pool evaluating the (c, γ) grid (<= 0
	// selects GOMAXPROCS). Every cell is an independent analytic
	// computation, so outputs are identical for every worker count.
	Workers int
}

// DefaultFig23Config mirrors the paper's setup.
func DefaultFig23Config(suppression bool) Fig23Config {
	var gammas []float64
	for g := 1.01; g <= 2.0; g += 0.01 {
		gammas = append(gammas, g)
	}
	return Fig23Config{
		N:           1131,
		Collusions:  []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40},
		Gammas:      gammas,
		Suppression: suppression,
	}
}

// Validate reports the first invalid field.
func (c Fig23Config) Validate() error {
	if c.N <= 1 {
		return fmt.Errorf("experiments: fig2/3 N %d must exceed 1", c.N)
	}
	if len(c.Collusions) == 0 || len(c.Gammas) == 0 {
		return fmt.Errorf("experiments: fig2/3 needs collusion and γ grids")
	}
	for _, g := range c.Gammas {
		if g <= 1 {
			return fmt.Errorf("experiments: γ %v must exceed 1", g)
		}
	}
	return nil
}

// Fig23Result holds the (a) false positive and (b) false negative
// curves per collusion fraction, plus the (c) optimal-γ summary.
type Fig23Result struct {
	// FalsePositives and FalseNegatives hold one series per collusion
	// fraction, each over the γ grid.
	FalsePositives []Series
	FalseNegatives []Series
	// OptimalFP/FN/Sum are indexed by collusion fraction: the error
	// rates at the γ minimizing FP+FN.
	Optimal Series // x = c, y = FP+FN at optimal γ
	// OptimalRates records the full rates behind Optimal.
	OptimalRates []core.DensityErrorRates
}

// Fig23 runs the sweep.
func Fig23(cfg Fig23Config) (*Fig23Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Fig23Result{Optimal: Series{Name: "misclassification at optimal gamma"}}

	// Evaluate the full (collusion, γ) grid in parallel — each cell is
	// an independent analytic computation — then reduce serially in grid
	// order so the assembled series and optimal-γ selection are
	// identical for every worker count.
	ng := len(cfg.Gammas)
	cells := make([]core.DensityErrorRates, len(cfg.Collusions)*ng)
	err := parexec.ForEach(cfg.Workers, len(cells), func(i int) error {
		scen := core.DensityScenario{
			N:           cfg.N,
			Collusion:   cfg.Collusions[i/ng],
			Suppression: cfg.Suppression,
		}
		rates, err := core.ErrorRatesAt(scen, cfg.Gammas[i%ng])
		if err != nil {
			return err
		}
		cells[i] = rates
		return nil
	})
	if err != nil {
		return nil, err
	}

	for ci, c := range cfg.Collusions {
		fpSeries := Series{Name: fmt.Sprintf("false positive c=%.2f", c)}
		fnSeries := Series{Name: fmt.Sprintf("false negative c=%.2f", c)}
		best := core.DensityErrorRates{FalsePositive: 1, FalseNegative: 1}
		for gi, g := range cfg.Gammas {
			rates := cells[ci*ng+gi]
			fpSeries.X = append(fpSeries.X, g)
			fpSeries.Y = append(fpSeries.Y, rates.FalsePositive)
			fnSeries.X = append(fnSeries.X, g)
			fnSeries.Y = append(fnSeries.Y, rates.FalseNegative)
			if rates.Sum() < best.Sum() {
				best = rates
			}
		}
		res.FalsePositives = append(res.FalsePositives, fpSeries)
		res.FalseNegatives = append(res.FalseNegatives, fnSeries)
		res.Optimal.X = append(res.Optimal.X, c)
		res.Optimal.Y = append(res.Optimal.Y, best.Sum())
		res.OptimalRates = append(res.OptimalRates, best)
	}
	return res, nil
}

// SummaryTable renders the optimal-γ outcomes as a table.
func (r *Fig23Result) SummaryTable(title string) Table {
	t := Table{
		Title:   title,
		Columns: []string{"collusion", "gamma", "false positive", "false negative", "sum"},
	}
	for i := range r.Optimal.X {
		rates := r.OptimalRates[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", r.Optimal.X[i]),
			fmt.Sprintf("%.3f", rates.Gamma),
			fmt.Sprintf("%.4f", rates.FalsePositive),
			fmt.Sprintf("%.4f", rates.FalseNegative),
			fmt.Sprintf("%.4f", rates.Sum()),
		})
	}
	return t
}
