package vodplace

import (
	"testing"
)

// TestPublicAPIEndToEnd exercises the documented quick-start flow through
// the public facade only.
func TestPublicAPIEndToEnd(t *testing.T) {
	g := Backbone55()
	if g.NumNodes() != 55 || g.NumEdges() != 76 {
		t.Fatalf("backbone: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	lib := GenerateLibrary(LibraryConfig{NumVideos: 400, Weeks: 3, NumSeries: 2}, 1)
	trace := GenerateTrace(lib, TraceConfig{Days: 18, NumVHOs: 55, RequestsPerVideoPerDay: 1}, 2)
	if len(trace.Requests) == 0 {
		t.Fatal("empty trace")
	}

	sys := &System{
		G: g, Lib: lib,
		DiskGB:      UniformDisk(lib, 55, 2.0),
		LinkCapMbps: UniformLinks(g, 1000),
	}
	run, err := sys.RunMIP(trace, MIPOptions{Solver: SolverOptions{Seed: 1, MaxPasses: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Plans) == 0 || run.Sim.Requests == 0 {
		t.Fatalf("empty run: %d plans, %d requests", len(run.Plans), run.Sim.Requests)
	}
	for _, p := range run.Plans {
		if !p.Result.Sol.IsIntegral(1e-6) {
			t.Errorf("plan day %d not integral", p.Day)
		}
	}

	base, err := sys.RunBaseline(trace, BaselineOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if base.Requests != run.Sim.Requests {
		t.Errorf("schemes measured different request counts: %d vs %d", base.Requests, run.Sim.Requests)
	}
}

// TestPublicAPIDirectSolve exercises instance building and solving without
// the System wrapper.
func TestPublicAPIDirectSolve(t *testing.T) {
	g := Ebone()
	lib := GenerateLibrary(LibraryConfig{NumVideos: 200, Weeks: 2}, 3)
	trace := GenerateTrace(lib, TraceConfig{Days: 8, NumVHOs: g.NumNodes(), RequestsPerVideoPerDay: 2}, 4)
	builder := &DemandBuilder{
		G: g, Lib: lib,
		DiskGB:      UniformDisk(lib, g.NumNodes(), 2.0),
		LinkCapMbps: UniformLinks(g, 800),
	}
	inst, err := builder.Instance(trace, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveInteger(inst, SolverOptions{Seed: 1, MaxPasses: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sol.IsIntegral(1e-6) {
		t.Error("not integral")
	}
	if res.LowerBound > res.Objective+1e-9 {
		t.Errorf("bound %g above objective %g", res.LowerBound, res.Objective)
	}
	if res.Violation.Unserved > 1e-6 {
		t.Errorf("unserved demand: %+v", res.Violation)
	}

	// Simulate the placement directly.
	pinned := make([][]int, g.NumNodes())
	for vi := range res.Sol.Videos {
		for _, f := range res.Sol.Videos[vi].Open {
			if f.V >= 0.5 {
				pinned[f.I] = append(pinned[f.I], inst.Demands[vi].Video)
			}
		}
	}
	simRes, err := Simulate(SimConfig{G: g, Lib: lib, Pinned: pinned}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Requests != len(trace.Requests) {
		t.Errorf("simulated %d of %d requests", simRes.Requests, len(trace.Requests))
	}
}

// TestGraphConstructionAPI covers the graph-building surface.
func TestGraphConstructionAPI(t *testing.T) {
	g := NewGraph("custom", 4)
	for i := 0; i < 4; i++ {
		if err := g.AddEdge(i, (i+1)%4); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	if g.Hops(0, 2) != 2 {
		t.Errorf("ring hops(0,2) = %d", g.Hops(0, 2))
	}
}
