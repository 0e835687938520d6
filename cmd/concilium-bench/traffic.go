package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"strconv"
	"time"

	"concilium/internal/benchreport"
	"concilium/internal/core"
	"concilium/internal/experiments"
	"concilium/internal/id"
	"concilium/internal/parexec"
	"concilium/internal/profiling"
)

// The Traffic figure (-fig 13) benchmarks the diagnosis protocol itself
// at the compact core's scale: stewarded SendMessage traffic — with
// malicious droppers, per-hop blame, verdict windows, and accusation
// chains live — against a system of the -traffic-n overlay sizes. A
// pointer-per-node plane capped this experiment near N=20k; the
// index-based traffic plane (DESIGN.md §9) runs it at N=100k on one
// core, which is the claim this figure gates in CI.
const trafficFig = 13

// trafficEndpoints bounds the src/dst pool. Concentrating traffic on a
// fixed pool keeps the steward working set (and so the lazily built
// tomography-tree population) bounded at large N, the way a real
// workload's hot pairs would.
const trafficEndpoints = 64

// trafficBatch is the number of endpoint picks per pass.
const trafficBatch = 512

// trafficStats are the deterministic outcome counts of one batch.
type trafficStats struct {
	sent, delivered, nodeDrops, culpritRight, netBlamed, chains int64
}

// runTrafficBatch drives one batch of stewarded messages between pool
// endpoints, pacing 100ms of virtual time between sends so the sampled
// probing load runs concurrently with the traffic. The pick sequence is
// derived only from the batch seed, so a second call replays exactly
// the same pairs.
func runTrafficBatch(cs *core.CompactSystem, pool []id.ID, seed uint64, st *trafficStats) error {
	pick := rand.New(rand.NewPCG(seed, seed^0x7472616666696331))
	for m := 0; m < trafficBatch; m++ {
		a, b := pick.IntN(len(pool)), pick.IntN(len(pool))
		if a == b {
			continue
		}
		rep, err := cs.SendMessage(pool[a], pool[b])
		if err != nil {
			return err
		}
		st.sent++
		if rep.Delivered && rep.AckReceived {
			st.delivered++
		}
		if rep.Kind == core.DropByNode {
			st.nodeDrops++
			if rep.Culprit == rep.DroppedBy {
				st.culpritRight++
			}
		}
		if rep.NetworkBlamed {
			st.netBlamed++
		}
		if rep.Chain != nil {
			st.chains++
		}
		cs.Run(100 * time.Millisecond)
	}
	return nil
}

// measureTraffic builds one compact system, warms it with probing and a
// cold traffic pass, then measures a warm pass over the identical pair
// sequence. The cold pass materializes every steward tree the route set
// touches (the lazy-tree first-touch cost); the warm pass is the
// sustained protocol-op measurement the timing envelope reports —
// ns/msg and allocs/msg with all trees cached, which is the steady
// state of a long-running deployment. Probing is a strided ~1k-node
// sample: full-population probing at N=100k would dominate the run
// without changing what the message path measures, and the link-failure
// injector stays off for the same reason (its candidate set would
// materialize every tree; chaos campaigns cover link faults at small N).
func measureTraffic(n, workers int, rng *rand.Rand) (map[string]float64, benchreport.Timing, error) {
	cfg := scaleSystemConfig(n, workers)
	cfg.MaliciousFraction = 0.1
	cfg.ArchiveRetention = 5 * time.Minute
	cs, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		return nil, benchreport.Timing{}, err
	}
	sampleK := 1024
	if s := cs.Size(); sampleK > s {
		sampleK = s
	}
	probers, err := cs.StartProbingSample(sampleK)
	if err != nil {
		return nil, benchreport.Timing{}, err
	}
	cs.Run(5 * time.Minute)

	pool := make([]id.ID, 0, trafficEndpoints)
	stride := len(probers) / trafficEndpoints
	if stride < 1 {
		stride = 1
	}
	for at := 0; at < len(probers) && len(pool) < trafficEndpoints; at += stride {
		pool = append(pool, probers[at])
	}

	var cold trafficStats
	if err := runTrafficBatch(cs, pool, uint64(n), &cold); err != nil {
		return nil, benchreport.Timing{}, err
	}
	var warm trafficStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := runTrafficBatch(cs, pool, uint64(n), &warm); err != nil {
		return nil, benchreport.Timing{}, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	checks := map[string]float64{
		"overlay_n":          float64(cs.Size()),
		"cold_sent":          float64(cold.sent),
		"cold_delivered":     float64(cold.delivered),
		"warm_sent":          float64(warm.sent),
		"warm_delivered":     float64(warm.delivered),
		"warm_node_drops":    float64(warm.nodeDrops),
		"warm_culprit_right": float64(warm.culpritRight),
		"warm_net_blamed":    float64(warm.netBlamed),
		"warm_chains":        float64(warm.chains),
		"archive_records":    float64(cs.Archive.Size()),
	}
	t := benchreport.Timing{
		WallNs:       wall.Nanoseconds(),
		NsPerOp:      perOp(wall.Nanoseconds(), warm.sent),
		AllocsPerOp:  int64(after.Mallocs-before.Mallocs) / warm.sent,
		BytesPerOp:   int64(after.TotalAlloc-before.TotalAlloc) / warm.sent,
		Ops:          warm.sent,
		PeakRSSBytes: profiling.PeakRSSBytes(),
		BytesPerNode: cs.Footprint() / int64(cs.Size()),
	}
	return checks, t, nil
}

// runTraffic measures every requested size (ascending) and returns one
// figure per size. Like the Scale figure, each size draws a fresh
// substream keyed by the size itself, so a 100k-only CI run and a full
// ladder produce identical traffic-n100000 checks for the same seed —
// regardless of -workers, which the internal serial reference asserts.
func runTraffic(w io.Writer, ns []int, root parexec.Seed, workers int) ([]benchreport.Figure, error) {
	resolved := parexec.Workers(workers)
	seed := root.Sub(trafficFig)
	figs := make([]benchreport.Figure, 0, len(ns))
	for _, n := range ns {
		measure := func(nWorkers int) (map[string]float64, benchreport.Timing, error) {
			return measureTraffic(n, nWorkers, seed.Stream(uint64(n)))
		}
		checks, timing, err := measure(resolved)
		if err != nil {
			return nil, fmt.Errorf("traffic-n%d: %w", n, err)
		}
		timing.SpeedupX = 1
		if resolved != 1 {
			serialChecks, serialTiming, err := measure(1)
			if err != nil {
				return nil, fmt.Errorf("traffic-n%d (serial reference): %w", n, err)
			}
			if !checksEqual(checks, serialChecks) {
				return nil, fmt.Errorf("traffic-n%d: outcomes diverge between workers=1 and workers=%d: %v vs %v",
					n, resolved, serialChecks, checks)
			}
			if timing.WallNs > 0 {
				timing.SpeedupX = float64(serialTiming.WallNs) / float64(timing.WallNs)
			}
		}
		figs = append(figs, benchreport.Figure{
			Name:   fmt.Sprintf("traffic-n%d", n),
			Checks: checks,
			Timing: timing,
		})
		fmt.Fprintf(w, "traffic-n%d: %d msgs in %v warm (%d ns/msg, %d allocs/msg), %d delivered, %d node drops (%d culprit-correct)\n",
			n, timing.Ops, time.Duration(timing.WallNs).Round(time.Millisecond), timing.NsPerOp, timing.AllocsPerOp,
			int64(checks["warm_delivered"]), int64(checks["warm_node_drops"]), int64(checks["warm_culprit_right"]))
	}
	return figs, nil
}

// trafficTable renders the Traffic figures for text/csv mode.
func trafficTable(figs []benchreport.Figure) experiments.Table {
	t := experiments.Table{
		Title:   "Figure 13: compact-plane diagnosis traffic (warm pass, ascending overlay N)",
		Columns: []string{"overlay N", "msgs", "wall", "ns/msg", "allocs/msg", "delivered", "node drops", "culprit ok", "peak RSS MiB"},
	}
	for _, f := range figs {
		t.Rows = append(t.Rows, []string{
			strconv.FormatInt(int64(f.Checks["overlay_n"]), 10),
			strconv.FormatInt(f.Timing.Ops, 10),
			time.Duration(f.Timing.WallNs).Round(time.Millisecond).String(),
			strconv.FormatInt(f.Timing.NsPerOp, 10),
			strconv.FormatInt(f.Timing.AllocsPerOp, 10),
			strconv.FormatInt(int64(f.Checks["warm_delivered"]), 10),
			strconv.FormatInt(int64(f.Checks["warm_node_drops"]), 10),
			strconv.FormatInt(int64(f.Checks["warm_culprit_right"]), 10),
			fmt.Sprintf("%.1f", float64(f.Timing.PeakRSSBytes)/(1<<20)),
		})
	}
	return t
}
