package core

import (
	"math/rand/v2"
	"testing"
	"time"

	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// sendMessageAllocBudget is the per-send allocation ceiling on a warm
// system's delivered-and-acked path. Before the zero-alloc rework this
// path cost ~144 allocs (routing-state map rebuilt per message, fresh
// hop-path and span slices per judgment); with index routing, cached
// trees and scratch arenas it costs 2 (the report and its copied-out
// route, both of which escape). The budget leaves slack for runtime
// noise while staying far under the old cost — if a change pushes past
// it, some per-send allocation crept back into the hot path.
const sendMessageAllocBudget = 8

// TestCompactSendMessageAllocBudget locks in the zero-alloc diagnosis
// hot path: repeated sends on a warm 40-host system must stay within
// the allocation budget.
func TestCompactSendMessageAllocBudget(t *testing.T) {
	cfg := SystemConfig{
		Topology:        topology.TestConfig(),
		OverlayFraction: 0.5,
		Blame:           DefaultBlameConfig(),
		Window:          DefaultWindowConfig(),
		MaxProbeTime:    2 * time.Minute,
		Failures:        netsim.DefaultFailureConfig(),
	}
	rng := rand.New(rand.NewPCG(7, 11))
	cs, err := BuildCompactSystem(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(10 * time.Minute)
	alive := cs.AliveIDs()
	src, dst := alive[0], alive[len(alive)/2]
	// One warmup send grows the scratch arenas to steady-state size.
	if _, err := cs.SendMessage(src, dst); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := cs.SendMessage(src, dst); err != nil {
			t.Fatal(err)
		}
	})
	if n > sendMessageAllocBudget {
		t.Errorf("compact SendMessage allocates %.1f/op on a warm system, budget %d", n, sendMessageAllocBudget)
	}
}

// TestSendMessageAllocBudget holds SendMessage to the same warm-path
// ceiling across a spread of source/destination pairs rather than one
// route, so a per-send allocation that only shows up on longer routes
// or on other stewards' scratch arenas is caught too.
func TestSendMessageAllocBudget(t *testing.T) {
	cfg := SystemConfig{
		Topology:        topology.TestConfig(),
		OverlayFraction: 0.5,
		Blame:           DefaultBlameConfig(),
		Window:          DefaultWindowConfig(),
		MaxProbeTime:    2 * time.Minute,
		Failures:        netsim.DefaultFailureConfig(),
	}
	rng := rand.New(rand.NewPCG(7, 11))
	cs, err := BuildCompactSystem(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.StartProbing(); err != nil {
		t.Fatal(err)
	}
	cs.Run(10 * time.Minute)
	alive := cs.AliveIDs()
	type pair struct{ src, dst int }
	var pairs []pair
	for i := 0; i < len(alive); i += 3 {
		pairs = append(pairs, pair{i, (i + len(alive)/2 + 1) % len(alive)})
	}
	// Warm every pair once so each route's scratch reaches steady state.
	for _, p := range pairs {
		if _, err := cs.SendMessage(alive[p.src], alive[p.dst]); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	n := testing.AllocsPerRun(50, func() {
		p := pairs[next%len(pairs)]
		next++
		if _, err := cs.SendMessage(alive[p.src], alive[p.dst]); err != nil {
			t.Fatal(err)
		}
	})
	if n > sendMessageAllocBudget {
		t.Errorf("SendMessage allocates %.1f/op over %d warm routes, budget %d", n, len(pairs), sendMessageAllocBudget)
	}
}
