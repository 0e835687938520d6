package baseline

import (
	"math/rand/v2"
	"testing"

	"concilium/internal/id"
	"concilium/internal/netsim"
	"concilium/internal/topology"
)

// triangle builds three members meeting at a shared hub plus direct
// pairwise links, so every pair has a direct path and a one-hop detour.
//
//	m0 --l0-- m1, m1 --l1-- m2, m0 --l2-- m2
func triangle(t *testing.T) (*netsim.Network, []id.ID, map[id.ID]map[id.ID][]topology.LinkID) {
	t.Helper()
	g, err := topology.NewGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	l01, _ := g.AddLink(0, 1)
	l12, _ := g.AddLink(1, 2)
	l02, _ := g.AddLink(0, 2)
	net, err := netsim.NewNetwork(g, netsim.NewSimulator())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(3, 4))
	m := []id.ID{id.Random(r), id.Random(r), id.Random(r)}
	paths := map[id.ID]map[id.ID][]topology.LinkID{
		m[0]: {m[1]: {l01}, m[2]: {l02}},
		m[1]: {m[0]: {l01}, m[2]: {l12}},
		m[2]: {m[0]: {l02}, m[1]: {l12}},
	}
	return net, m, paths
}

func TestRONValidation(t *testing.T) {
	t.Parallel()
	net, m, paths := triangle(t)
	if _, err := New(nil, m, paths); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := New(net, m[:1], paths); err == nil {
		t.Error("single member accepted")
	}
	if _, err := New(net, m, nil); err == nil {
		t.Error("nil paths accepted")
	}
}

func TestRONDiagnoseHealthyPath(t *testing.T) {
	t.Parallel()
	net, m, paths := triangle(t)
	ron, err := New(net, m, paths)
	if err != nil {
		t.Fatal(err)
	}
	d := ron.Diagnose(m[0], m[1])
	if d.PathBad {
		t.Error("healthy path diagnosed bad")
	}
}

func TestRONDetoursAroundFailure(t *testing.T) {
	t.Parallel()
	net, m, paths := triangle(t)
	ron, err := New(net, m, paths)
	if err != nil {
		t.Fatal(err)
	}
	// Fail the direct m0-m1 link.
	if err := net.SetLinkDown(0, true); err != nil {
		t.Fatal(err)
	}
	d := ron.Diagnose(m[0], m[1])
	if !d.PathBad {
		t.Fatal("down path diagnosed healthy")
	}
	if !d.DetourFound || d.Detour != m[2] {
		t.Errorf("detour = %v found=%v, want via m2", d.Detour.Short(), d.DetourFound)
	}
}

func TestRONNoDetourWhenIsolated(t *testing.T) {
	t.Parallel()
	net, m, paths := triangle(t)
	ron, err := New(net, m, paths)
	if err != nil {
		t.Fatal(err)
	}
	// Cut m0 off entirely.
	if err := net.SetLinkDown(0, true); err != nil {
		t.Fatal(err)
	}
	if err := net.SetLinkDown(2, true); err != nil {
		t.Fatal(err)
	}
	d := ron.Diagnose(m[0], m[1])
	if !d.PathBad || d.DetourFound {
		t.Errorf("isolated diagnosis = %+v", d)
	}
	// Unknown pairs are simply unusable.
	r := rand.New(rand.NewPCG(5, 6))
	if ron.PathUsable(id.Random(r), m[0]) {
		t.Error("unknown pair reported usable")
	}
}
