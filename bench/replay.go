package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"concilium/internal/core"
	"concilium/internal/id"
	"concilium/internal/sigcrypto"
	"concilium/internal/tomography"
	"concilium/internal/topology"
)

// replayResult holds the per-layer costs measured after the pass by
// calling each layer's public function directly, with the inputs the
// traced blocks recorded. A zero means the workload gave that layer
// nothing to replay.
type replayResult struct {
	blameUs, windowNs, windowRecords float64
	accusationUs, chainVerifyUs      float64
	windowAddNs                      float64
	treeBuildUs, bfsUs, linksPerHop  float64
	routeNs                          float64
	observeUs                        float64
	signUs, verifyUs                 float64
	// Calls behind the chain replays, and how many chains verified.
	blameCalls, accusations, verifies int
}

const (
	replayMembers = 256  // trees and BFS runs replayed
	routeRounds   = 20   // times each pair is routed
	cryptoOps     = 2000 // sign and verify calls
)

// per returns total/n in the unit one `unit` long, 0 when n is 0.
func per(total time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(n)
}

// replay runs after the pass, so it cannot disturb the simulated
// statistics; each phase is one span under the replay span.
func (s *system) replay(r *passResult, tr *tracer, parent int32) (replayResult, error) {
	var out replayResult
	cs := s.cs
	delta := cs.Config.Blame.Delta
	threshold := cs.Config.Blame.GuiltyThreshold
	phase := func(name string, fn func() error) error {
		id := tr.open(parent, name)
		defer tr.close(id)
		return fn()
	}

	// Blame and the archive scans under it. Only chains young enough
	// that the archive still holds their whole evidence window count:
	// pruning an older window would make the replay cheaper than life.
	horizon := cs.Sim.Now().Add(-(retention - delta))
	var recent []*core.RevisionChain
	for _, c := range r.chains {
		if c.Links[0].At >= horizon {
			recent = append(recent, c)
		}
	}
	err := phase("blame", func() error {
		start := time.Now()
		for _, c := range recent {
			for i := range c.Links {
				a := &c.Links[i]
				if _, err := cs.Engine.Blame(a.Accused, a.Path, a.At); err != nil {
					return fmt.Errorf("replay blame: %w", err)
				}
				out.blameCalls++
			}
		}
		out.blameUs = per(time.Since(start), out.blameCalls, time.Microsecond)
		return nil
	})
	if err != nil {
		return out, err
	}
	_ = phase("archive_window", func() error {
		var calls, records int
		start := time.Now()
		for _, c := range recent {
			for i := range c.Links {
				a := &c.Links[i]
				for _, l := range a.Path {
					records += len(cs.Archive.Window(l, a.At.Add(-delta), a.At.Add(delta)))
					calls++
				}
			}
		}
		out.windowNs = per(time.Since(start), calls, time.Nanosecond)
		if out.blameCalls > 0 {
			out.windowRecords = float64(records) / float64(out.blameCalls)
		}
		return nil
	})

	// Accusation assembly: two signatures per chain link. A signer that
	// has since departed (churn) has no keys to replay with.
	err = phase("accusation_build", func() error {
		var spent time.Duration
		for _, c := range r.chains {
			for i := range c.Links {
				a := &c.Links[i]
				ai, ok1 := cs.Overlay.IndexOf(a.Accuser)
				ji, ok2 := cs.Overlay.IndexOf(a.Accused)
				if !ok1 || !ok2 {
					continue
				}
				res := core.BlameResult{Judged: a.Accused, At: a.At, Blame: a.Blame, Guilty: true, Evidence: a.Evidence}
				start := time.Now()
				commit := core.NewCommitment(cs.Keys(ji), a.Accuser, a.Accused, a.Commitment.Dest, a.MsgID, a.At)
				_, err := core.NewAccusation(cs.Keys(ai), a.Accuser, res, a.MsgID, a.Path, commit)
				spent += time.Since(start)
				if err != nil {
					return fmt.Errorf("replay accusation: %w", err)
				}
				out.accusations++
			}
		}
		out.accusationUs = per(spent, out.accusations, time.Microsecond)
		return nil
	})
	if err != nil {
		return out, err
	}

	// Chain verification as a first-time reader pays it: the pass has
	// verified these chains already, so drop the cached outcomes.
	_ = phase("chain_verify", func() error {
		sigcrypto.ResetVerifyCache()
		start := time.Now()
		for _, c := range r.chains {
			if c.Verify(cs.KeyDir(), threshold) == nil {
				out.verifies++
			}
		}
		out.chainVerifyUs = per(time.Since(start), len(r.chains), time.Microsecond)
		return nil
	})

	err = phase("window_add", func() error {
		vw, err := core.NewCompactVerdictWindow(cs.Config.Window)
		if err != nil {
			return err
		}
		start := time.Now()
		for i, v := range r.verdicts {
			vw.Add(uint32(i%64), v)
		}
		out.windowAddNs = per(time.Since(start), len(r.verdicts), time.Nanosecond)
		return nil
	})
	if err != nil {
		return out, err
	}

	// Tree materialisation and the BFS inside it, over members strided
	// across the ring.
	members := make([]uint32, 0, replayMembers)
	stride := max(cs.Size()/replayMembers, 1)
	for i := 0; i < cs.Size() && len(members) < replayMembers; i += stride {
		members = append(members, uint32(i))
	}
	var scratch topology.BFSScratch
	trees := make([]*tomography.Tree, 0, len(members))
	err = phase("tree_build", func() error {
		start := time.Now()
		for _, i := range members {
			t, err := cs.TreeOf(i, &scratch)
			if err != nil {
				return fmt.Errorf("replay tree: %w", err)
			}
			trees = append(trees, t)
		}
		out.treeBuildUs = per(time.Since(start), len(members), time.Microsecond)
		return nil
	})
	if err != nil {
		return out, err
	}
	err = phase("bfs", func() error {
		start := time.Now()
		for _, i := range members {
			if _, err := cs.Topo.BFSInto(&scratch, cs.Router(i)); err != nil {
				return fmt.Errorf("replay bfs: %w", err)
			}
		}
		out.bfsUs = per(time.Since(start), len(members), time.Microsecond)
		return nil
	})
	if err != nil {
		return out, err
	}
	var hops, links int
	for _, t := range trees {
		for i := range t.Leaves {
			hops++
			links += len(t.Leaves[i].Path)
		}
	}
	if hops > 0 {
		out.linksPerHop = float64(links) / float64(hops)
	}

	// Routing alone, over the pass's pairs, or as many drawn from the
	// pool when the pass drew them per message.
	pairs := s.pairs
	for rng := rand.New(rand.NewPCG(2, harnessStream)); len(pairs) < coldSends; {
		if a, b := s.pool[rng.IntN(len(s.pool))], s.pool[rng.IntN(len(s.pool))]; a != b {
			pairs = append(pairs, [2]id.ID{a, b})
		}
	}
	err = phase("route", func() error {
		var buf []uint32
		start := time.Now()
		for round := 0; round < routeRounds; round++ {
			for _, p := range pairs {
				si, ok := cs.Overlay.IndexOf(p[0])
				if !ok {
					return fmt.Errorf("replay route: %s left the overlay", p[0].Short())
				}
				var err error
				if buf, err = cs.Overlay.AppendRouteSecure(si, p[1], 0, buf[:0]); err != nil {
					return fmt.Errorf("replay route: %w", err)
				}
			}
		}
		out.routeNs = per(time.Since(start), routeRounds*len(pairs), time.Nanosecond)
		return nil
	})
	if err != nil {
		return out, err
	}

	// One probe sweep's observation of a tree's links, on the harness's
	// own random stream.
	err = phase("observe", func() error {
		rng := rand.New(rand.NewPCG(1, harnessStream))
		var obs []tomography.LinkObservation
		start := time.Now()
		for _, t := range trees {
			var err error
			if obs, err = tomography.AppendObserveLinks(obs[:0], cs.Net, t.Links(), cs.Config.Blame.ProbeAccuracy, rng); err != nil {
				return fmt.Errorf("replay observe: %w", err)
			}
		}
		out.observeUs = per(time.Since(start), len(trees), time.Microsecond)
		return nil
	})
	if err != nil {
		return out, err
	}

	// Raw signature cost on distinct payloads, so no verify is a cache hit.
	return out, phase("sigcrypto", func() error {
		keys := cs.Keys(0)
		payloads := make([][]byte, cryptoOps)
		sigs := make([][]byte, cryptoOps)
		for i := range payloads {
			payloads[i] = make([]byte, 256)
			binary.BigEndian.PutUint64(payloads[i], uint64(i))
		}
		start := time.Now()
		for i, p := range payloads {
			sigs[i] = keys.Sign(p)
		}
		out.signUs = per(time.Since(start), cryptoOps, time.Microsecond)
		start = time.Now()
		for i, p := range payloads {
			if !sigcrypto.Verify(keys.Public, p, sigs[i]) {
				return fmt.Errorf("replay sigcrypto: signature %d does not verify", i)
			}
		}
		out.verifyUs = per(time.Since(start), cryptoOps, time.Microsecond)
		return nil
	})
}
