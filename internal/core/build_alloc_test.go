package core

import (
	"math/rand/v2"
	"testing"

	"concilium/internal/topology"
)

// buildAllocBudgetPerNode is the per-overlay-node allocation ceiling for
// BuildCompactSystem. The build costs 15.7 allocs per node at the test
// topology (42 nodes, topology generation included; 17.8 while it still
// derived every key pair), since key seeds and routing tables land in
// shared slabs, keys are derived on first use and trees are not built.
// The budget leaves slack for runtime noise; if a change pushes past it,
// a per-node temporary crept into the build loops.
const buildAllocBudgetPerNode = 20

// TestBuildSystemAllocBudget locks in the build path's allocation
// profile: constructing a full system must stay within the per-node
// budget. Run at workers=1 so AllocsPerRun attributes every allocation
// to the calling goroutine deterministically.
func TestBuildSystemAllocBudget(t *testing.T) {
	cfg := DefaultSystemConfig()
	cfg.Topology = topology.TestConfig()
	cfg.OverlayFraction = 0.5
	cfg.Workers = 1
	var nodes int
	n := testing.AllocsPerRun(10, func() {
		rng := rand.New(rand.NewPCG(7, 11))
		s, err := BuildCompactSystem(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		nodes = s.Size()
	})
	perNode := n / float64(nodes)
	if perNode > buildAllocBudgetPerNode {
		t.Errorf("BuildCompactSystem allocates %.1f/node (%d nodes), budget %d",
			perNode, nodes, buildAllocBudgetPerNode)
	}
}
