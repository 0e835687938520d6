package experiments

import (
	"fmt"
	"time"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/parexec"
	"concilium/internal/stats"
	"concilium/internal/topology"
)

// Fig5Config parameterizes the blame-PDF simulation of §4.3: a Pastry
// overlay atop the router topology, 5% of overlay-path links down at any
// moment, randomized lightweight probing, and blame evaluated for
// (A, B, C) triples at random times. B is "faulty" when it would have
// dropped the message despite a healthy B→C path, "non-faulty" when a
// link in B→C was genuinely bad.
type Fig5Config struct {
	// System describes the deployment. MaliciousFraction > 0 gives the
	// Figure 5(b) variant where colluders invert their probe results.
	System core.SystemConfig
	// Duration is the simulated span (the paper runs two virtual hours).
	Duration time.Duration
	// Warmup delays sampling until the archive has data.
	Warmup time.Duration
	// SampleEvents is the number of evaluation instants.
	SampleEvents int
	// TriplesPerEvent is how many (A, B, C) triples to judge at each
	// instant.
	TriplesPerEvent int
	// Bins sizes the blame histograms.
	Bins int
	// Workers bounds the pool evaluating blame for each event's triples
	// (<= 0 selects GOMAXPROCS). Triple selection stays serial on the
	// experiment rng and blame evaluation consumes no randomness, so
	// results are bit-identical for every worker count.
	Workers int
}

// DefaultFig5Config returns a medium-scale run with the paper's
// protocol parameters (max_probe_time 120 s, Δ 60 s, a = 0.9, 5% links
// down, 40% threshold).
func DefaultFig5Config(maliciousFraction float64) Fig5Config {
	sys := core.DefaultSystemConfig()
	sys.MaliciousFraction = maliciousFraction
	sys.ArchiveRetention = 5 * time.Minute
	return Fig5Config{
		System:          sys,
		Duration:        2 * time.Hour,
		Warmup:          10 * time.Minute,
		SampleEvents:    60,
		TriplesPerEvent: 40,
		Bins:            20,
	}
}

// Validate reports the first invalid field.
func (c Fig5Config) Validate() error {
	if err := c.System.Validate(); err != nil {
		return err
	}
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("experiments: fig5 duration %v must be positive", c.Duration)
	case c.Warmup < 0 || c.Warmup >= c.Duration:
		return fmt.Errorf("experiments: fig5 warmup %v out of [0, duration)", c.Warmup)
	case c.SampleEvents <= 0:
		return fmt.Errorf("experiments: fig5 needs sample events")
	case c.TriplesPerEvent <= 0:
		return fmt.Errorf("experiments: fig5 needs triples per event")
	case c.Bins <= 1:
		return fmt.Errorf("experiments: fig5 bins %d too few", c.Bins)
	}
	return nil
}

// Fig5Result holds the two PDFs and the thresholded verdict rates.
type Fig5Result struct {
	// FaultyPDF / InnocentPDF are the blame distributions (Figure 5).
	FaultyPDF   *stats.Histogram
	InnocentPDF *stats.Histogram
	// PGood is the probability an innocent forwarder draws a guilty
	// verdict at the threshold; PFaulty the probability a faulty one
	// does (the §4.3 in-text rates).
	PGood   float64
	PFaulty float64
	// Samples counted per class.
	FaultySamples   int
	InnocentSamples int
	// Threshold echoes the verdict threshold used.
	Threshold float64
}

// PDFSeries converts a histogram into a plottable series.
func PDFSeries(name string, h *stats.Histogram) Series {
	s := Series{Name: name}
	dens := h.Density()
	for i, d := range dens {
		s.X = append(s.X, h.BinCenter(i))
		s.Y = append(s.Y, d)
	}
	return s
}

// Fig5 builds the system and runs the full simulation.
func Fig5(cfg Fig5Config, rng stats.Rand) (*Fig5Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys, err := core.BuildCompactSystem(cfg.System, rng)
	if err != nil {
		return nil, err
	}
	if err := sys.StartFailures(); err != nil {
		return nil, err
	}
	if err := sys.StartProbing(); err != nil {
		return nil, err
	}

	faultyPDF, err := stats.NewHistogram(0, 1.0000001, cfg.Bins)
	if err != nil {
		return nil, err
	}
	innocentPDF, err := stats.NewHistogram(0, 1.0000001, cfg.Bins)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{
		FaultyPDF:   faultyPDF,
		InnocentPDF: innocentPDF,
		Threshold:   cfg.System.Blame.GuiltyThreshold,
	}
	var guiltyFaulty, guiltyInnocent int
	collusion := cfg.System.MaliciousFraction > 0

	// Membership is fixed for the whole run, so one snapshot serves
	// every event.
	members := sys.AliveIDs()

	// Schedule evaluation instants uniformly across the sampling span.
	span := cfg.Duration - cfg.Warmup
	var evalErr error
	for e := 0; e < cfg.SampleEvents; e++ {
		at := cfg.Warmup + time.Duration(rng.Float64()*float64(span))
		err := sys.Sim.Schedule(sysTime(at), func() {
			if evalErr != nil {
				return
			}
			// Phase 1 (serial): draw the event's triples from the
			// experiment rng. Selection consumes the same random
			// sequence regardless of worker count.
			type triple struct {
				b      id.ID
				path   []topology.LinkID
				faulty bool
			}
			var triples []triple
			for i := 0; i < cfg.TriplesPerEvent; i++ {
				a := members[rng.IntN(len(members))]
				_, aTree, err := treeOf(sys, a)
				if err != nil {
					evalErr = err
					return
				}
				aPeers := aTree.Leaves
				if len(aPeers) == 0 {
					continue
				}
				b := aPeers[rng.IntN(len(aPeers))].Node
				bi, bTree, err := treeOf(sys, b)
				if err != nil {
					evalErr = err
					return
				}
				bPeers := bTree.Leaves
				if len(bPeers) == 0 {
					continue
				}
				cLeaf := bPeers[rng.IntN(len(bPeers))]
				if cLeaf.Node == a || b == a {
					continue
				}
				path := cLeaf.Path
				if len(path) == 0 {
					continue
				}
				pathBad := !sys.Net.PathUp(path)
				bMalicious := sys.Behavior(bi).DropsMessages
				// Classify the triple per the paper's methodology: a
				// genuinely bad B→C makes B non-faulty for this message;
				// a healthy path means B must have dropped it. Under
				// collusion, droppers play the faulty role and honest
				// nodes the innocent role.
				var faulty bool
				switch {
				case pathBad && (!collusion || !bMalicious):
					faulty = false
				case !pathBad && (!collusion || bMalicious):
					faulty = true
				default:
					continue
				}
				triples = append(triples, triple{b: b, path: path, faulty: faulty})
			}
			// Phase 2 (parallel): blame evaluation reads only the archive
			// and network state — no randomness, and no writes but the
			// archive's settle of its staged sweeps, which the first
			// read makes under the archive's lock — so the triples fan
			// out across workers.
			now := sys.Sim.Now()
			blames := make([]core.BlameResult, len(triples))
			if err := parexec.ForEach(cfg.Workers, len(triples), func(i int) error {
				blame, err := sys.Engine.Blame(triples[i].b, triples[i].path, now)
				if err != nil {
					return err
				}
				blames[i] = blame
				return nil
			}); err != nil {
				evalErr = err
				return
			}
			// Phase 3 (serial): accumulate histograms in triple order.
			for i, tr := range triples {
				blame := blames[i]
				if tr.faulty {
					res.FaultyPDF.Add(blame.Blame)
					res.FaultySamples++
					if blame.Guilty {
						guiltyFaulty++
					}
				} else {
					res.InnocentPDF.Add(blame.Blame)
					res.InnocentSamples++
					if blame.Guilty {
						guiltyInnocent++
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	sys.Run(cfg.Duration)
	if evalErr != nil {
		return nil, evalErr
	}
	if res.FaultySamples == 0 || res.InnocentSamples == 0 {
		return nil, fmt.Errorf("experiments: fig5 starved (%d faulty, %d innocent samples)",
			res.FaultySamples, res.InnocentSamples)
	}
	res.PFaulty = float64(guiltyFaulty) / float64(res.FaultySamples)
	res.PGood = float64(guiltyInnocent) / float64(res.InnocentSamples)
	return res, nil
}

func sysTime(d time.Duration) (t netsimTime) { return netsimTime(d) }
