package main

import (
	"math"
	"slices"
	"time"
)

// metricDef names one metric; BENCHMARK.json carries the same tables
// and bench_test.go holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is what a user of the system sees. Every workload reports
// every one, none may read 0, and the driver wants each to spread less
// than its bound over ten seeds. That shapes the list (README.md has
// the measurements): accuracy is reported rather than its complement;
// the diagnosis percentiles, which a fault-free workload does not have,
// and the overall p50/p99, which spread up to 40% on deliver-n20k, are
// per-layer metrics; and the typical send is the trimmed mean over
// delivered sends, because send times have two modes (delivered ~50 us,
// diagnosed ~1 ms) and a delivered send's time steps with the number
// of probe sweeps that fire inside it, so medians sit on a step.
// Bounds are about three times the worst spread seen on the reference
// box, capped at the driver's 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"msgs_per_s", "1/s", "higher", 0.25},
	{"deliver_tmean_us", "us", "lower", 0.25},
	{"allocs_per_msg", "count", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"wire_bytes_per_msg", "B", "lower", 0.20},
	{"diag_accuracy", "share", "higher", 0.20},
}

// perLayer metrics are named after the module they measure. Spans are
// wall time around the live call in traced blocks, replays are direct
// calls after the pass, counts repeat exactly for a seed and a message
// count. bench/README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{"core.build_s", "s", "lower", 0},
	{"core.build_us_per_node", "us", "lower", 0},
	{"core.probe_warm_s", "s", "lower", 0},
	{"core.cold_pass_s", "s", "lower", 0},
	{"core.send_p50_us", "us", "lower", 0},
	{"core.send_p99_us", "us", "lower", 0},
	{"core.send_deliver_us", "us", "lower", 0},
	{"core.send_nodedrop_us", "us", "lower", 0},
	{"core.send_linkdrop_us", "us", "lower", 0},
	{"core.diag_p50_us", "us", "lower", 0},
	{"core.diag_p95_us", "us", "lower", 0},
	{"core.diag_share_of_msgs", "share", "lower", 0},
	{"core.blame_us", "us", "lower", 0},
	{"core.blame_replay_us", "us", "lower", 0},
	{"core.blame_calls_per_diag", "count", "lower", 0},
	{"core.blame_probes_per_call", "count", "lower", 0},
	{"core.blame_share", "share", "lower", 0},
	{"core.accusation_build_us", "us", "lower", 0},
	{"core.chain_links_per_diag", "count", "lower", 0},
	{"core.chain_verify_us", "us", "lower", 0},
	{"core.window_add_ns", "ns", "lower", 0},
	{"core.failnode_us", "us", "lower", 0},
	{"core.joinnode_us", "us", "lower", 0},
	{"core.tree_build_us", "us", "lower", 0},
	{"overlay.route_ns", "ns", "lower", 0},
	{"overlay.route_hops", "count", "lower", 0},
	{"topology.bfs_us", "us", "lower", 0},
	{"topology.links_per_hop", "count", "lower", 0},
	{"tomography.archive_window_ns", "ns", "lower", 0},
	{"tomography.window_records", "count", "lower", 0},
	{"tomography.observe_us", "us", "lower", 0},
	{"tomography.archive_size", "count", "lower", 0},
	{"tomography.records_per_s", "1/s", "higher", 0},
	{"tomography.pruned_per_msg", "count", "lower", 0},
	{"netsim.pace_run_us", "us", "lower", 0},
	{"netsim.sweeps_per_msg", "count", "lower", 0},
	{"netsim.insend_sweeps_per_msg", "count", "lower", 0},
	{"netsim.sweep_us", "us", "lower", 0},
	{"netsim.sim_s_per_host_s", "s/s", "higher", 0},
	{"netsim.link_failures", "count", "lower", 0},
	{"sigcrypto.sign_us", "us", "lower", 0},
	{"sigcrypto.verify_us", "us", "lower", 0},
	{"sigcrypto.verify_cache_hit_ratio", "share", "higher", 0},
	{"sigcrypto.signs_per_msg", "count", "lower", 0},
	{"dht.publish_us", "us", "lower", 0},
	{"dht.fetch_us", "us", "lower", 0},
	{"dht.chains_per_fetch", "count", "lower", 0},
	{"dht.puts", "count", "lower", 0},
	{"dht.gets", "count", "lower", 0},
	{"dht.rejected", "count", "lower", 0},
	{"attr.send_share", "share", "lower", 0},
	{"attr.pace_share", "share", "lower", 0},
	{"attr.dht_share", "share", "lower", 0},
	{"attr.churn_share", "share", "lower", 0},
	{"attr.harness_share", "share", "lower", 0},
	{"attr.diag_explained_share", "share", "higher", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantileUs returns the q-quantile in microseconds, 0 without
// samples. It sorts s in place.
func (s samples) quantileUs(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	slices.Sort(s)
	return float64(s[int(q*float64(len(s)-1))]) / 1e3
}

// trimmedMeanUs returns the mean of the middle 90% in microseconds, 0
// without samples: smooth where a median sits on a step, and deaf to
// the one send in a thousand that an archive prune lands in (~10 ms).
// It sorts s in place.
func (s samples) trimmedMeanUs() float64 {
	slices.Sort(s)
	mid := s[len(s)/20 : len(s)-len(s)/20]
	return ratio(float64(mid.total().Nanoseconds()), float64(len(mid))) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndValues computes the untraced run's metrics.
func endToEndValues(setups []setupTimes, r *passResult, peakRSSBytes int64) map[string]float64 {
	totals := make([]float64, len(setups))
	for i, st := range setups {
		totals[i] = st.total().Seconds()
	}
	// Counts are taken over the fixed prefix, so that they repeat.
	f := r.prefix
	accuracy := 1.0
	if d := f.dropped(); d > 0 {
		accuracy = float64(f.CulpritRight+f.NetworkRight) / float64(d)
	}
	return map[string]float64{
		"setup_s":            median(totals),
		"msgs_per_s":         median(r.rates),
		"deliver_tmean_us":   r.deliver.trimmedMeanUs(),
		"allocs_per_msg":     ratio(float64(r.prefixMallocs), float64(f.Sent)),
		"peak_rss_mb":        float64(peakRSSBytes) / (1 << 20),
		"wire_bytes_per_msg": ratio(float64(f.WireBytes), float64(f.Sent)),
		"diag_accuracy":      accuracy,
	}
}

// perLayerValues computes the traced run's metrics.
func (s *system) perLayerValues(setups []setupTimes, r *passResult, rp replayResult) map[string]float64 {
	phase := func(get func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(setups))
		for i, st := range setups {
			xs[i] = get(st).Seconds()
		}
		return median(xs)
	}
	build := phase(func(t setupTimes) time.Duration { return t.Build })
	f, d := r.final, r.delta
	msgs := float64(f.Sent)
	diag := float64(len(r.diag))
	wall := r.wall.Seconds()

	blameWall := float64(d.Histograms["core/blame_wallns"].Sum)
	blameCount := float64(d.Histograms["core/blame_wallns"].Count)
	blameProbes := float64(d.Histograms["core/blame_probes"].Sum)

	// Signatures: one per sweep when snapshots are signed, and a
	// commitment plus an accusation per chain link. Computed from
	// counts, not measured.
	signs := 2 * float64(f.ChainLinks)
	if s.spec.Signed {
		signs += float64(f.ProbeSweeps)
	}

	explained := blameWall + 1e3*rp.accusationUs*float64(f.ChainLinks) + rp.routeNs*diag

	share := func(d time.Duration) float64 { return ratio(d.Seconds(), r.tracedWall.Seconds()) }
	sendShare, paceShare := share(r.tracedSend.total()), share(r.pace.total())
	dhtShare, churnShare := share(r.publish.total()+r.fetch.total()), share(r.failnode.total()+r.joinnode.total())

	return map[string]float64{
		"core.build_s":           build,
		"core.build_us_per_node": build * 1e6 / float64(s.cs.Size()),
		"core.probe_warm_s":      phase(func(t setupTimes) time.Duration { return t.ProbeWarm }),
		"core.cold_pass_s":       phase(func(t setupTimes) time.Duration { return t.ColdPass }),

		"core.send_p50_us":           r.send.quantileUs(0.50),
		"core.send_p99_us":           r.send.quantileUs(0.99),
		"core.send_deliver_us":       r.deliver.quantileUs(0.5),
		"core.send_nodedrop_us":      r.nodeDrop.quantileUs(0.5),
		"core.send_linkdrop_us":      r.linkDrop.quantileUs(0.5),
		"core.diag_p50_us":           r.diag.quantileUs(0.50),
		"core.diag_p95_us":           r.diag.quantileUs(0.95),
		"core.diag_share_of_msgs":    ratio(diag, msgs),
		"core.blame_us":              ratio(blameWall, blameCount) / 1e3,
		"core.blame_replay_us":       rp.blameUs,
		"core.blame_calls_per_diag":  ratio(float64(f.BlameCalls), diag),
		"core.blame_probes_per_call": ratio(blameProbes, float64(f.BlameCalls)),
		"core.blame_share":           ratio(blameWall/1e9, wall),
		"core.accusation_build_us":   rp.accusationUs,
		"core.chain_links_per_diag":  ratio(float64(f.ChainLinks), diag),
		"core.chain_verify_us":       rp.chainVerifyUs,
		"core.window_add_ns":         rp.windowAddNs,
		"core.failnode_us":           r.failnode.quantileUs(0.5),
		"core.joinnode_us":           r.joinnode.quantileUs(0.5),
		"core.tree_build_us":         rp.treeBuildUs,

		"overlay.route_ns":       rp.routeNs,
		"overlay.route_hops":     ratio(float64(r.hops), msgs),
		"topology.bfs_us":        rp.bfsUs,
		"topology.links_per_hop": rp.linksPerHop,

		"tomography.archive_window_ns": rp.windowNs,
		"tomography.window_records":    rp.windowRecords,
		"tomography.observe_us":        rp.observeUs,
		"tomography.archive_size":      float64(f.ArchiveSize),
		"tomography.records_per_s":     ratio(float64(f.ArchiveRecords), wall),
		"tomography.pruned_per_msg":    ratio(float64(d.Counters["tomography/archive_pruned"]), msgs),

		"netsim.pace_run_us":           r.pace.quantileUs(0.5),
		"netsim.sweeps_per_msg":        ratio(float64(f.ProbeSweeps), msgs),
		"netsim.insend_sweeps_per_msg": ratio(float64(r.insendSweeps), float64(len(r.tracedSend))),
		"netsim.sweep_us":              ratio(float64(r.pace.total().Microseconds()), float64(r.paceSweeps)),
		"netsim.sim_s_per_host_s":      ratio(r.simTime.Seconds(), wall),
		"netsim.link_failures":         float64(d.Counters["netsim/link_failures"]),

		"sigcrypto.sign_us":                rp.signUs,
		"sigcrypto.verify_us":              rp.verifyUs,
		"sigcrypto.verify_cache_hit_ratio": ratio(float64(r.verifyHits), float64(r.verifyHits+r.verifyMisses)),
		"sigcrypto.signs_per_msg":          ratio(signs, msgs),

		"dht.publish_us":       r.publish.quantileUs(0.5),
		"dht.fetch_us":         r.fetch.quantileUs(0.5),
		"dht.chains_per_fetch": ratio(float64(r.chainsFetched), float64(len(r.fetch))),
		"dht.puts":             float64(d.Counters["dht/puts"]),
		"dht.gets":             float64(d.Counters["dht/gets"]),
		"dht.rejected":         float64(d.Counters["dht/chains_rejected"]),

		"attr.send_share":           sendShare,
		"attr.pace_share":           paceShare,
		"attr.dht_share":            dhtShare,
		"attr.churn_share":          churnShare,
		"attr.harness_share":        1 - sendShare - paceShare - dhtShare - churnShare,
		"attr.diag_explained_share": ratio(explained, float64(r.diag.total().Nanoseconds())),
		"trace.overhead_share":      1 - ratio(median(r.tracedRates), median(r.rates)),
	}
}

// finite reports whether every value can be printed as a JSON number.
func finite(m map[string]float64) bool {
	for _, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
