package experiments

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"concilium/internal/core"
	"concilium/internal/metrics"
	"concilium/internal/topology"
)

// The parallel execution layer promises bit-identical results for any
// worker count. These tests pin that promise: the same seed must give
// byte-for-byte equal outputs at workers=1 and workers=8.

func detRand() *rand.Rand { return rand.New(rand.NewPCG(4242, 2424)) }

func TestFig1WorkerInvariance(t *testing.T) {
	cfg := Fig1Config{Ns: []int{128, 512, 1131}, Trials: 60}

	cfg.Workers = 1
	serial, err := Fig1(cfg, detRand())
	if err != nil {
		t.Fatalf("Fig1 workers=1: %v", err)
	}
	cfg.Workers = 8
	parallel, err := Fig1(cfg, detRand())
	if err != nil {
		t.Fatalf("Fig1 workers=8: %v", err)
	}
	if !reflect.DeepEqual(serial.Analytic, parallel.Analytic) {
		t.Errorf("analytic series differ between worker counts:\n1: %+v\n8: %+v",
			serial.Analytic, parallel.Analytic)
	}
	if !reflect.DeepEqual(serial.MonteCarlo, parallel.MonteCarlo) {
		t.Errorf("monte carlo series differ between worker counts:\n1: %+v\n8: %+v",
			serial.MonteCarlo, parallel.MonteCarlo)
	}
}

func TestFig23WorkerInvariance(t *testing.T) {
	base := DefaultFig23Config(true)
	base.Collusions = base.Collusions[:4]
	base.Gammas = base.Gammas[:25]

	cfg := base
	cfg.Workers = 1
	serial, err := Fig23(cfg)
	if err != nil {
		t.Fatalf("Fig23 workers=1: %v", err)
	}
	cfg.Workers = 8
	parallel, err := Fig23(cfg)
	if err != nil {
		t.Fatalf("Fig23 workers=8: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig23 results differ between worker counts:\n1: %+v\n8: %+v",
			serial, parallel)
	}
}

func TestFig5WorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	base := DefaultFig5Config(0.2)
	base.System.Topology = topology.TestConfig()
	base.System.OverlayFraction = 0.5
	base.Duration = 30 * time.Minute
	base.Warmup = 8 * time.Minute
	base.SampleEvents = 12
	base.TriplesPerEvent = 12

	run := func(workers int) *Fig5Result {
		t.Helper()
		cfg := base
		cfg.Workers = workers
		cfg.System.Workers = workers
		res, err := Fig5(cfg, detRand())
		if err != nil {
			t.Fatalf("Fig5 workers=%d: %v", workers, err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("Fig5 results differ between worker counts:\n1: %+v\n8: %+v",
			serial, parallel)
	}
}

// TestCompactBuildWorkerInvariance pins the parallel-build determinism
// contract (DESIGN.md §10) at build level: for each seed, the canonical
// system snapshot — identifiers, certificates, routing tables — and the
// canonical metrics core of a short probing run (which materializes
// every tomography tree) must be byte-identical for workers ∈ {1, 4, 8}.
func TestCompactBuildWorkerInvariance(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		build := func(workers int) ([]byte, metrics.Snapshot) {
			t.Helper()
			reg := metrics.NewRegistry()
			cfg := core.DefaultSystemConfig()
			cfg.Topology = topology.TestConfig()
			cfg.OverlayFraction = 0.5
			cfg.MaliciousFraction = 0.2
			cfg.Metrics = reg
			cfg.Workers = workers
			rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
			sys, err := core.BuildCompactSystem(cfg, rng)
			if err != nil {
				t.Fatalf("BuildCompactSystem seed=%d workers=%d: %v", seed, workers, err)
			}
			if err := sys.StartProbing(); err != nil {
				t.Fatalf("StartProbing seed=%d workers=%d: %v", seed, workers, err)
			}
			sys.Run(5 * time.Minute)
			return sys.AppendCanonical(nil), reg.Snapshot().Canonical()
		}
		refSnap, refMet := build(1)
		for _, workers := range []int{4, 8} {
			snap, met := build(workers)
			if !bytes.Equal(refSnap, snap) {
				t.Errorf("seed %d: canonical snapshot differs between workers=1 and workers=%d", seed, workers)
			}
			if !met.Equal(refMet) {
				t.Errorf("seed %d: canonical metrics differ between workers=1 and workers=%d", seed, workers)
			}
		}
	}
}
