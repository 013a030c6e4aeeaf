package mip

import (
	"math"
	"strings"
	"testing"

	"vodplace/internal/topology"
)

// pathGraph3 returns the 3-office path 0-1-2.
func pathGraph3(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.New("path3", 3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	return g
}

// tinyInstance: 3 offices in a path, one 1-GB video demanded 10x at office 0
// and 5x at office 2, one slice with concurrency 2 and 1.
func tinyInstance(t *testing.T) *Instance {
	t.Helper()
	g := pathGraph3(t)
	demands := []VideoDemand{{
		Video:    0,
		SizeGB:   1,
		RateMbps: 2,
		Js:       []int32{0, 2},
		Agg:      []float64{10, 5},
		Conc:     [][]float64{{2, 1}},
	}}
	inst, err := NewInstance(g, []float64{4, 4, 4}, caps(g, 100), 1, demands)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func caps(g *topology.Graph, c float64) []float64 {
	out := make([]float64, g.NumLinks())
	for i := range out {
		out[i] = c
	}
	return out
}

func TestNewInstanceValidation(t *testing.T) {
	g := pathGraph3(t)
	okDemand := []VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{0}, Agg: []float64{1}, Conc: [][]float64{{1}}}}
	cases := []struct {
		name    string
		disk    []float64
		link    []float64
		slices  int
		demands []VideoDemand
		wantErr string
	}{
		{"wrong disk count", []float64{1, 1}, caps(g, 1), 1, okDemand, "disk capacities"},
		{"zero disk", []float64{0, 1, 1}, caps(g, 1), 1, okDemand, "must be positive"},
		{"wrong link count", []float64{4, 4, 4}, []float64{1}, 1, okDemand, "link capacities"},
		{"zero link cap", []float64{4, 4, 4}, caps(g, 0), 1, okDemand, "must be positive"},
		{"negative slices", []float64{4, 4, 4}, caps(g, 1), -1, okDemand, "slice count"},
		{"bad video size", []float64{4, 4, 4}, caps(g, 1), 1,
			[]VideoDemand{{Video: 0, SizeGB: 0, RateMbps: 2}}, "size"},
		{"bad rate", []float64{4, 4, 4}, caps(g, 1), 1,
			[]VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 0}}, "rate"},
		{"agg mismatch", []float64{4, 4, 4}, caps(g, 1), 1,
			[]VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{0}, Agg: nil, Conc: [][]float64{{}}}}, "agg entries"},
		{"conc slice mismatch", []float64{4, 4, 4}, caps(g, 1), 2,
			[]VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{0}, Agg: []float64{1}, Conc: [][]float64{{1}}}}, "concurrency slices"},
		{"office out of range", []float64{4, 4, 4}, caps(g, 1), 1,
			[]VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{5}, Agg: []float64{1}, Conc: [][]float64{{1}}}}, "out of range"},
		{"unsorted offices", []float64{4, 4, 4}, caps(g, 1), 1,
			[]VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{1, 0}, Agg: []float64{1, 1}, Conc: [][]float64{{1, 1}}}}, "ascending"},
		{"negative demand", []float64{4, 4, 4}, caps(g, 1), 1,
			[]VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{0}, Agg: []float64{-1}, Conc: [][]float64{{1}}}}, "negative demand"},
		{"infinite demand", []float64{4, 4, 4}, caps(g, 1), 1,
			[]VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{0}, Agg: []float64{math.Inf(1)}, Conc: [][]float64{{1}}}}, "non-finite demand"},
		{"NaN demand", []float64{4, 4, 4}, caps(g, 1), 1,
			[]VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{0}, Agg: []float64{math.NaN()}, Conc: [][]float64{{1}}}}, "non-finite demand"},
		{"negative concurrency", []float64{4, 4, 4}, caps(g, 1), 1,
			[]VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{0}, Agg: []float64{1}, Conc: [][]float64{{-1}}}}, "non-finite concurrency"},
		{"NaN concurrency", []float64{4, 4, 4}, caps(g, 1), 1,
			[]VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{0}, Agg: []float64{1}, Conc: [][]float64{{math.NaN()}}}}, "non-finite concurrency"},
		{"library too big", []float64{0.1, 0.1, 0.1}, caps(g, 1), 1, okDemand, "aggregate disk"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewInstance(g, c.disk, c.link, c.slices, c.demands)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
	if _, err := NewInstance(nil, nil, nil, 0, nil); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestCost(t *testing.T) {
	inst := tinyInstance(t)
	inst.Alpha, inst.Beta = 2, 0.5
	if got := inst.Cost(0, 2); got != 2*2+0.5 {
		t.Errorf("Cost(0,2) = %g, want 4.5", got)
	}
	if got := inst.Cost(1, 1); got != 0.5 {
		t.Errorf("Cost(1,1) = %g, want 0.5 (local β)", got)
	}
	if got := inst.Hops(0, 2); got != 2 {
		t.Errorf("Hops(0,2) = %d, want 2", got)
	}
}

// storeAt builds an integral placement of the tiny instance's single video at
// the given office serving all demand.
func storeAt(inst *Instance, i int32) *Solution {
	s := NewSolution(inst)
	s.Videos[0].Open = []Frac{{I: i, V: 1}}
	for k := range inst.Demands[0].Js {
		s.Videos[0].Assign[k] = []Frac{{I: i, V: 1}}
	}
	return s
}

func TestObjective(t *testing.T) {
	inst := tinyInstance(t)
	// Store at office 1 (middle): office 0 pays hops 1 * 1GB * 10 req,
	// office 2 pays hops 1 * 1GB * 5 req. α=1, β=0.
	s := storeAt(inst, 1)
	if got := s.Objective(); math.Abs(got-15) > 1e-9 {
		t.Errorf("Objective = %g, want 15", got)
	}
	// Store at office 0: local for j=0 (0 cost), hops 2 for j=2.
	s = storeAt(inst, 0)
	if got := s.Objective(); math.Abs(got-10) > 1e-9 {
		t.Errorf("Objective = %g, want 10", got)
	}
	// β shifts everything by β·Σ s·a = 15β regardless of placement
	// (Proposition 5.1).
	inst.Beta = 1
	if got := storeAt(inst, 0).Objective(); math.Abs(got-25) > 1e-9 {
		t.Errorf("Objective with β=1 = %g, want 25", got)
	}
	inst.Beta = 0
}

func TestDiskAndLinkUsage(t *testing.T) {
	inst := tinyInstance(t)
	s := storeAt(inst, 0)
	disk := s.DiskUsage()
	if disk[0] != 1 || disk[1] != 0 || disk[2] != 0 {
		t.Errorf("DiskUsage = %v, want [1 0 0]", disk)
	}
	link := s.LinkUsage()
	if len(link) != 1 {
		t.Fatalf("slices = %d", len(link))
	}
	// Streams to office 2: rate 2 Mb/s × concurrency 1 over path 0->1->2.
	var used, unused int
	for l, u := range link[0] {
		lk := inst.G.Link(l)
		onPath := (lk.From == 0 && lk.To == 1) || (lk.From == 1 && lk.To == 2)
		if onPath {
			if math.Abs(u-2) > 1e-9 {
				t.Errorf("link %v usage %g, want 2", lk, u)
			}
			used++
		} else {
			if u != 0 {
				t.Errorf("link %v usage %g, want 0", lk, u)
			}
			unused++
		}
	}
	if used != 2 {
		t.Errorf("expected 2 used links, got %d", used)
	}
}

func TestFractionalAssignment(t *testing.T) {
	inst := tinyInstance(t)
	s := NewSolution(inst)
	// Copies at 0 and 2; office 0 served locally, office 2 splits 50/50.
	s.Videos[0].Open = []Frac{{0, 1}, {2, 1}}
	s.Videos[0].Assign[0] = []Frac{{0, 1}}
	s.Videos[0].Assign[1] = []Frac{{0, 0.5}, {2, 0.5}}
	// Objective: j=2 pays 0.5 × hops2 × 1GB × 5 = 5.
	if got := s.Objective(); math.Abs(got-5) > 1e-9 {
		t.Errorf("Objective = %g, want 5", got)
	}
	v := s.Check()
	if v.Max() > 1e-9 {
		t.Errorf("valid fractional solution flagged: %+v", v)
	}
	if s.IsIntegral(1e-6) {
		// y values are integral here even though x is fractional.
		t.Log("placement integral with fractional assignment (expected)")
	}
}

func TestCheckDetectsViolations(t *testing.T) {
	inst := tinyInstance(t)

	// Unserved demand.
	s := NewSolution(inst)
	s.Videos[0].Open = []Frac{{0, 1}}
	s.Videos[0].Assign[0] = []Frac{{0, 0.4}}
	s.Videos[0].Assign[1] = []Frac{{0, 1}}
	if v := s.Check(); math.Abs(v.Unserved-0.6) > 1e-9 {
		t.Errorf("Unserved = %g, want 0.6", v.Unserved)
	}

	// x exceeding y.
	s = NewSolution(inst)
	s.Videos[0].Open = []Frac{{0, 0.3}}
	s.Videos[0].Assign[0] = []Frac{{0, 1}}
	s.Videos[0].Assign[1] = []Frac{{0, 1}}
	if v := s.Check(); math.Abs(v.XExceedsY-0.7) > 1e-9 {
		t.Errorf("XExceedsY = %g, want 0.7", v.XExceedsY)
	}

	// Disk violation: shrink disk to 0.5 GB.
	inst2 := tinyInstance(t)
	inst2.DiskGB = []float64{0.5, 4, 4}
	s = storeAt(inst2, 0)
	if v := s.Check(); math.Abs(v.Disk-1) > 1e-9 { // 1/0.5 - 1 = 1
		t.Errorf("Disk violation = %g, want 1", v.Disk)
	}

	// Link violation: shrink link capacity to 1 Mb/s; flow is 2 Mb/s.
	inst3 := tinyInstance(t)
	for l := range inst3.LinkCapMbps {
		inst3.LinkCapMbps[l] = 1
	}
	s = storeAt(inst3, 0)
	if v := s.Check(); math.Abs(v.Link-1) > 1e-9 {
		t.Errorf("Link violation = %g, want 1", v.Link)
	}
}

func TestCheckUnplacedVideoWithNoDemand(t *testing.T) {
	g := pathGraph3(t)
	demands := []VideoDemand{{Video: 0, SizeGB: 1, RateMbps: 2, Conc: [][]float64{}}}
	inst, err := NewInstance(g, []float64{4, 4, 4}, caps(g, 10), 0, demands)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolution(inst)
	if v := s.Check(); math.Abs(v.Unserved-1) > 1e-9 {
		t.Errorf("unplaced zero-demand video: Unserved = %g, want 1", v.Unserved)
	}
	s.Videos[0].Open = []Frac{{1, 1}}
	if v := s.Check(); v.Max() > 1e-9 {
		t.Errorf("placed zero-demand video flagged: %+v", v)
	}
}

func TestCopiesAndIntegral(t *testing.T) {
	inst := tinyInstance(t)
	s := NewSolution(inst)
	s.Videos[0].Open = []Frac{{0, 1}, {1, 0.4}, {2, 0.7}}
	if got := s.Copies()[0]; got != 2 { // 1 and 0.7 count, 0.4 does not
		t.Errorf("Copies = %d, want 2", got)
	}
	if s.IsIntegral(1e-6) {
		t.Error("fractional y reported integral")
	}
	if got := s.TotalCopiesGB(); math.Abs(got-2.1) > 1e-9 {
		t.Errorf("TotalCopiesGB = %g, want 2.1", got)
	}
}

func TestUpdateCostObjective(t *testing.T) {
	inst := tinyInstance(t)
	inst.UpdateWeight = 1
	inst.Origin = []int32{2}
	s := storeAt(inst, 0)
	// Transfer objective 10 plus migration: 1 GB from origin 2 to 0 = hops 2.
	if got := s.Objective(); math.Abs(got-12) > 1e-9 {
		t.Errorf("Objective with update cost = %g, want 12", got)
	}
	if got := inst.PlacementCost(0, 2); got != 0 {
		t.Errorf("PlacementCost at origin = %g, want 0", got)
	}
}

func TestLowerBoundNoNetwork(t *testing.T) {
	inst := tinyInstance(t)
	inst.Beta = 0.5
	want := 0.5 * 1 * 15 // β · s · Σa
	if got := inst.LowerBoundNoNetwork(); math.Abs(got-want) > 1e-9 {
		t.Errorf("LowerBoundNoNetwork = %g, want %g", got, want)
	}
	// Any feasible solution must cost at least the bound.
	for i := int32(0); i < 3; i++ {
		if obj := storeAt(inst, i).Objective(); obj < want-1e-9 {
			t.Errorf("placement at %d costs %g below bound %g", i, obj, want)
		}
	}
}

func TestTotalDemandGB(t *testing.T) {
	d := VideoDemand{SizeGB: 2, Agg: []float64{3, 4}}
	if got := d.TotalDemandGB(); got != 14 {
		t.Errorf("TotalDemandGB = %g, want 14", got)
	}
}

func TestYAt(t *testing.T) {
	p := VideoPlacement{Open: []Frac{{1, 0.5}, {4, 1}}}
	if got := p.YAt(1); got != 0.5 {
		t.Errorf("YAt(1) = %g", got)
	}
	if got := p.YAt(2); got != 0 {
		t.Errorf("YAt(2) = %g, want 0", got)
	}
}
