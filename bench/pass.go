package main

import (
	"fmt"
	"runtime"
	"time"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/metrics"
	"concilium/internal/netsim"
	"concilium/internal/sigcrypto"
)

// simStats are the simulated outcomes of the fixed prefix of a pass.
// For one seed they repeat exactly, run to run and traced or not;
// expected.json pins them at seed 42.
type simStats struct {
	Sent         int64 `json:"sent"`
	Delivered    int64 `json:"delivered"`
	NodeDrops    int64 `json:"node_drops"`
	LinkDrops    int64 `json:"link_drops"`
	AckDrops     int64 `json:"ack_drops"`
	ChurnDrops   int64 `json:"churn_drops"`
	Verdicts     int64 `json:"verdicts"`
	Chains       int64 `json:"chains"`
	ChainLinks   int64 `json:"chain_links"`
	CulpritRight int64 `json:"culprit_right"`
	NetworkRight int64 `json:"network_right"`

	ProbeSweeps    uint64 `json:"core_probe_sweeps"`
	BlameCalls     uint64 `json:"core_blame_calls"`
	ArchiveRecords uint64 `json:"tomography_archive_records"`
	WireBytes      uint64 `json:"wire_bytes"`
	ArchiveSize    int64  `json:"archive_size"`
}

// dropped is the number of messages lost to a node or a link, the
// denominator of the diagnosis-accuracy metric.
func (s simStats) dropped() int64 { return s.NodeDrops + s.LinkDrops + s.AckDrops }

// wireCounters are the §4.4 message classes; their sum is the bytes the
// protocol put on the wire.
var wireCounters = []string{
	"wire/probe_bytes", "wire/snapshot_bytes", "wire/message_bytes", "wire/ack_bytes", "wire/accusation_bytes",
}

// wireBytes sums the wire counters of a registry snapshot or delta.
func wireBytes(d metrics.Snapshot) uint64 {
	var sum uint64
	for _, name := range wireCounters {
		sum += d.Counters[name]
	}
	return sum
}

// passBase is the state just before the first timed message; the pass
// reports growth since then.
type passBase struct {
	reg                      metrics.Snapshot
	verifyHits, verifyMisses uint64
	simNow                   netsim.Time
	mallocs                  uint64
}

func (s *system) readBase() passBase {
	b := passBase{reg: s.reg.Snapshot(), simNow: s.cs.Sim.Now()}
	b.verifyHits, b.verifyMisses, _ = sigcrypto.VerifyCacheStats()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b.mallocs = mem.Mallocs
	return b
}

// since returns how far the registry has moved since the base.
func (s *system) since(b passBase) metrics.Snapshot {
	d, err := s.reg.Snapshot().Diff(b.reg)
	if err != nil {
		// Counters and histograms only grow; only a bug in the registry
		// gets here.
		panic(err)
	}
	return d
}

// samples are the durations of one kind of span, in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Nanoseconds()) }

func (s samples) total() time.Duration {
	var sum int64
	for _, ns := range s {
		sum += ns
	}
	return time.Duration(sum)
}

// passResult is everything one timed pass measured.
type passResult struct {
	prefix        simStats // at the end of the fixed prefix
	prefixMallocs uint64   // heap allocations over the prefix
	final         simStats // at the end of the pass
	base          passBase
	delta         metrics.Snapshot // the registry's growth over the pass
	simTime       time.Duration    // simulated time the pass covered

	send    samples // SendMessage, every message
	deliver samples // those that ended delivered and acknowledged
	diag    samples // the others: sends that ran diagnosis

	// Spans of the traced blocks only.
	tracedSend, nodeDrop, linkDrop     samples
	publish, fetch, failnode, joinnode samples
	pace                               samples
	insendSweeps, paceSweeps           uint64 // probe sweeps fired inside sends, and while pacing
	chainsFetched                      int64
	tracedWall                         time.Duration

	rates       []float64 // untraced blocks, messages per second
	tracedRates []float64

	wall time.Duration
	// Verify-cache traffic of the pass; read at its end because the
	// replay phase resets the cache.
	verifyHits, verifyMisses uint64
	attempted                int64
	failed                   int64
	failures                 []string // first few, for the report

	chains   []*core.RevisionChain // most recent of the traced blocks, for replay
	verdicts []core.Verdict
	hops     int64 // overlay hops over all routes
}

const (
	keepChains   = 512
	keepVerdicts = 4096
	maxFailures  = 8
)

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runPass sends messages in blocks until at least d has elapsed and
// the fixed prefix is complete. With a tracer every second block is
// traced: it takes a clock read at each boundary inside a message and
// records spans; the other blocks take only the two reads the send
// percentiles need, so the pair gives the tracing overhead from one
// process and one system state.
func (s *system) runPass(d time.Duration, tr *tracer, passSpan int32) *passResult {
	w := s.spec
	r := &passResult{base: s.readBase(), send: make(samples, 0, 1<<18), deliver: make(samples, 0, 1<<18)}
	threshold := s.cs.Config.Blame.GuiltyThreshold
	hosts := s.cs.Topo.EndHosts()
	var st simStats
	var publishes int64

	start := time.Now()
	for block := 0; block < w.PrefixBlocks || time.Since(start) < d; block++ {
		traced := tr != nil && block%2 == 1
		blockStart := time.Now()
		for m := 0; m < w.Block; m++ {
			msg := int64(block*w.Block + m)
			src, dst := s.nextPair()
			if s.repo != nil && msg > 0 && msg%repoLifetime == 0 {
				if err := s.newRepo(); err != nil {
					r.fail("new repository at %d: %v", msg, err)
				}
			}

			var sweeps0 uint64
			if traced {
				sweeps0 = s.sweeps.Value()
			}
			t0 := time.Now()
			rep, err := s.cs.SendMessage(src, dst)
			t1 := time.Now()
			r.attempted++
			if err != nil {
				r.fail("send %d: %v", msg, err)
				continue
			}
			sent := t1.Sub(t0)
			r.send.add(sent)
			if rep.Delivered && rep.AckReceived {
				r.deliver.add(sent)
			} else {
				r.diag.add(sent)
			}
			st.count(rep)
			r.hops += int64(len(rep.Route) - 1)

			var tPub, tFetch time.Time
			if rep.Chain != nil {
				if s.repo != nil {
					r.attempted++
					if err := s.repo.PublishAt(rep.Chain, s.cs.Sim.Now()); err != nil {
						r.fail("publish %d: %v", msg, err)
					}
					publishes++
					if traced {
						tPub = time.Now()
					}
					if publishes%fetchEvery == 0 {
						r.attempted++
						got, err := s.repo.Fetch(rep.Culprit)
						if err != nil || len(got) == 0 {
							r.fail("fetch %d: %d chains, err %v", msg, len(got), err)
						}
						if traced {
							tFetch = time.Now()
							r.chainsFetched += int64(len(got))
						}
					}
				} else if err := rep.Chain.Verify(s.cs.KeyDir(), threshold); err != nil {
					// No repository verifies on publish here, and after
					// later churn a signer may be gone, so check now.
					r.fail("chain %d does not self-verify: %v", msg, err)
				}
				if traced {
					r.keepChain(rep.Chain)
				}
			}
			if traced && len(r.verdicts) < keepVerdicts {
				r.verdicts = append(r.verdicts, rep.Verdicts...)
			}

			var tChurn0, tFail, tJoin time.Time
			churned := w.ChurnEvery > 0 && (msg+1)%int64(w.ChurnEvery) == 0
			if churned {
				if traced {
					tChurn0 = time.Now()
				}
				r.attempted += 2
				victim, err := s.pickVictim()
				if err == nil {
					err = s.cs.FailNode(victim)
				}
				if err != nil {
					r.fail("failnode after %d: %v", msg, err)
				}
				if traced {
					tFail = time.Now()
				}
				if _, err := s.cs.JoinNode(hosts[s.pick.IntN(len(hosts))]); err != nil {
					r.fail("joinnode after %d: %v", msg, err)
				}
				if traced {
					tJoin = time.Now()
				}
			}

			var tPace0 time.Time
			var sweeps1 uint64
			if traced {
				sweeps1 = s.sweeps.Value()
				tPace0 = time.Now()
			}
			s.cs.Run(pace)
			if !traced {
				continue
			}
			tEnd := time.Now()

			r.insendSweeps += sweeps1 - sweeps0
			r.paceSweeps += s.sweeps.Value() - sweeps1
			ms := tr.message(passSpan, msg, t0, tEnd)
			span := func(name string, into *samples, from, to time.Time) {
				into.add(to.Sub(from))
				tr.child(ms, name, msg, from, to)
			}
			span("send", &r.tracedSend, t0, t1)
			switch rep.Kind {
			case core.DropByNode:
				r.nodeDrop.add(sent)
			case core.DropByLink, core.DropAckByLink:
				r.linkDrop.add(sent)
			}
			if !tPub.IsZero() {
				span("publish", &r.publish, t1, tPub)
			}
			if !tFetch.IsZero() {
				span("fetch", &r.fetch, tPub, tFetch)
			}
			if churned {
				span("failnode", &r.failnode, tChurn0, tFail)
				span("joinnode", &r.joinnode, tFail, tJoin)
			}
			span("pace_run", &r.pace, tPace0, tEnd)
		}
		blockWall := time.Since(blockStart)
		rate := float64(w.Block) / blockWall.Seconds()
		if traced {
			r.tracedRates = append(r.tracedRates, rate)
			r.tracedWall += blockWall
		} else {
			r.rates = append(r.rates, rate)
		}
		if block+1 == w.PrefixBlocks {
			r.prefix = s.snapshot(st, s.since(r.base))
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			r.prefixMallocs = mem.Mallocs - r.base.mallocs
		}
	}
	r.wall = time.Since(start)
	hits, misses, _ := sigcrypto.VerifyCacheStats()
	r.verifyHits, r.verifyMisses = hits-r.base.verifyHits, misses-r.base.verifyMisses
	r.delta = s.since(r.base)
	r.simTime = s.cs.Sim.Now().Sub(r.base.simNow)
	r.final = s.snapshot(st, r.delta)
	return r
}

func (r *passResult) keepChain(c *core.RevisionChain) {
	if len(r.chains) < keepChains {
		r.chains = append(r.chains, c)
		return
	}
	// Keep the most recent: replayed blame needs evidence the archive
	// has not pruned yet.
	copy(r.chains, r.chains[1:])
	r.chains[len(r.chains)-1] = c
}

// count folds one delivery report into the statistics.
func (st *simStats) count(rep *core.DeliveryReport) {
	st.Sent++
	switch rep.Kind {
	case core.DropNone:
		if rep.Delivered && rep.AckReceived {
			st.Delivered++
		}
	case core.DropByNode:
		st.NodeDrops++
		if rep.Culprit == rep.DroppedBy {
			st.CulpritRight++
		}
	case core.DropByLink:
		st.LinkDrops++
		if rep.NetworkBlamed {
			st.NetworkRight++
		}
	case core.DropAckByLink:
		st.AckDrops++
		if rep.NetworkBlamed {
			st.NetworkRight++
		}
	case core.DropByChurn:
		st.ChurnDrops++
	}
	st.Verdicts += int64(len(rep.Verdicts))
	if rep.Chain != nil {
		st.Chains++
		st.ChainLinks += int64(len(rep.Chain.Links))
	}
}

// snapshot completes the per-report counts with the registry's growth.
func (s *system) snapshot(st simStats, d metrics.Snapshot) simStats {
	st.ProbeSweeps = d.Counters["core/probe_sweeps"]
	st.BlameCalls = d.Counters["core/blame_calls"]
	st.ArchiveRecords = d.Counters["tomography/archive_records"]
	st.WireBytes = wireBytes(d)
	st.ArchiveSize = int64(s.cs.Archive.Size())
	return st
}

// pickVictim draws a random member that is not an endpoint of any pair,
// so every pair stays sendable through the whole pass.
func (s *system) pickVictim() (id.ID, error) {
	for try := 0; try < 1000; try++ {
		x := s.cs.NodeID(uint32(s.pick.IntN(s.cs.Size())))
		if !s.endpoints[x] {
			return x, nil
		}
	}
	return id.ID{}, fmt.Errorf("no member outside the %d endpoints found", len(s.endpoints))
}

// checkOutputs runs the output checks that need the system after the
// pass and returns what failed.
func (s *system) checkOutputs(r *passResult) []string {
	var bad []string
	if r.failed > 0 {
		bad = append(bad, fmt.Sprintf("%d of %d operations failed: %v", r.failed, r.attempted, r.failures))
	}
	c := s.cs.Counters
	if c.ArchiveRecordErrors != 0 || c.ProbeRescheduleErrors != 0 {
		bad = append(bad, fmt.Sprintf("system counters report errors: %+v", c))
	}
	f := r.final
	if s.spec.Malicious == 0 && s.spec.DownFraction == 0 && f.Delivered != f.Sent {
		bad = append(bad, fmt.Sprintf("delivered %d of %d on a fault-free workload", f.Delivered, f.Sent))
	}
	if f.Sent != f.Delivered+f.NodeDrops+f.LinkDrops+f.AckDrops+f.ChurnDrops {
		bad = append(bad, fmt.Sprintf("outcomes do not add up to messages sent: %+v", f))
	}
	if s.spec.ChurnEvery > 0 {
		for _, p := range s.pairs {
			si, ok := s.cs.Overlay.IndexOf(p[0])
			if !ok {
				bad = append(bad, fmt.Sprintf("endpoint %s left the overlay", p[0].Short()))
				continue
			}
			route, err := s.cs.Overlay.AppendRouteSecure(si, p[1], 0, nil)
			if err != nil || s.cs.NodeID(route[len(route)-1]) != p[1] {
				bad = append(bad, fmt.Sprintf("after churn %s no longer routes to %s: %v", p[0].Short(), p[1].Short(), err))
			}
		}
	}
	return bad
}
