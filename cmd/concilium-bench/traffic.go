package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"concilium/internal/benchreport"
	"concilium/internal/core"
	"concilium/internal/experiments"
	"concilium/internal/id"
)

// The Traffic figure (-fig 13) drives the diagnosis protocol itself at
// the compact core's scale: stewarded SendMessage traffic — with
// malicious droppers, per-hop blame, verdict windows, and accusation
// chains live — against a system of the -traffic-n overlay sizes. A
// pointer-per-node plane capped this experiment near N=20k; the
// index-based traffic plane (DESIGN.md §9) runs it at N=100k on one
// core, which is the claim this figure's checks pin in CI.

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
// cold traffic pass, then runs a warm pass over the identical pair
// sequence. The cold pass materializes every steward tree the route set
// touches (the lazy-tree first-touch cost); the warm pass is the
// sustained protocol-op measurement whose allocations the entry reports
// — allocs/msg with all trees cached, which is the steady state of a
// long-running deployment. Probing is a strided ~1k-node sample:
// full-population probing at N=100k would dominate the run without
// changing what the message path measures, and the link-failure
// injector stays off for the same reason (its candidate set would
// materialize every tree; chaos campaigns cover link faults at small N).
func measureTraffic(name string, n, workers int, rng *rand.Rand) (benchreport.Figure, error) {
	cfg := scaleSystemConfig(n, workers)
	cfg.MaliciousFraction = 0.1
	cfg.ArchiveRetention = 5 * time.Minute
	cs, err := core.BuildCompactSystem(cfg, rng)
	if err != nil {
		return benchreport.Figure{}, err
	}
	sampleK := 1024
	if s := cs.Size(); sampleK > s {
		sampleK = s
	}
	probers, err := cs.StartProbingSample(sampleK)
	if err != nil {
		return benchreport.Figure{}, err
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
		return benchreport.Figure{}, err
	}
	var warm trafficStats
	allocs, bytes, err := benchreport.CountAllocs(func() error {
		return runTrafficBatch(cs, pool, uint64(n), &warm)
	})
	if err != nil {
		return benchreport.Figure{}, err
	}
	return benchreport.Figure{
		Name: fmt.Sprintf("%s-n%d", name, n),
		Checks: map[string]float64{
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
		},
		Timing: benchreport.Timing{
			Ops:          warm.sent,
			AllocsPerOp:  allocs / warm.sent,
			BytesPerOp:   bytes / warm.sent,
			BytesPerNode: cs.Footprint() / int64(cs.Size()),
		},
	}, nil
}

// runTraffic measures every requested size (ascending) and renders the
// table. Like the Scale figure, each size draws a fresh substream keyed
// by the size itself, so a 100k-only CI run and a full ladder produce
// identical traffic-n100000 checks for the same seed.
func runTraffic(c figCtx) ([]benchreport.Figure, error) {
	seed := c.root.Sub(uint64(c.num))
	figs := make([]benchreport.Figure, 0, len(c.trafficNs))
	t := experiments.Table{
		Title:   "Figure 13: compact-plane diagnosis traffic (warm pass, ascending overlay N)",
		Columns: []string{"overlay N", "msgs", "allocs/msg", "delivered", "node drops", "culprit ok"},
	}
	for _, n := range c.trafficNs {
		f, err := measureTraffic(c.name, n, c.workers, seed.Stream(uint64(n)))
		if err != nil {
			return nil, fmt.Errorf("%s-n%d: %w", c.name, n, err)
		}
		figs = append(figs, f)
		t.Rows = append(t.Rows, []string{
			strconv.FormatInt(int64(f.Checks["overlay_n"]), 10),
			strconv.FormatInt(f.Timing.Ops, 10),
			strconv.FormatInt(f.Timing.AllocsPerOp, 10),
			strconv.FormatInt(int64(f.Checks["warm_delivered"]), 10),
			strconv.FormatInt(int64(f.Checks["warm_node_drops"]), 10),
			strconv.FormatInt(int64(f.Checks["warm_culprit_right"]), 10),
		})
	}
	return figs, c.render.table(c.w, t)
}
