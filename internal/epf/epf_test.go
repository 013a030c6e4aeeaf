package epf

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"vodplace/internal/mip"
	"vodplace/internal/topology"
)

func pathGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.New("path", n)
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	return g
}

func uniformCaps(g *topology.Graph, c float64) []float64 {
	out := make([]float64, g.NumLinks())
	for i := range out {
		out[i] = c
	}
	return out
}

// inst2x2: two offices, one link. Video 0 is hot at office 0, video 1 hot at
// office 1; disk fits exactly one video per office. The optimum stores each
// video at its hot office and serves the cold demand remotely: cost 2.
func inst2x2(t *testing.T) *mip.Instance {
	t.Helper()
	g := topology.New("pair", 2)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Build(); err != nil {
		t.Fatal(err)
	}
	demands := []mip.VideoDemand{
		{
			Video: 0, SizeGB: 1, RateMbps: 2,
			Js: []int32{0, 1}, Agg: []float64{10, 1},
			Conc: [][]float64{{3, 1}},
		},
		{
			Video: 1, SizeGB: 1, RateMbps: 2,
			Js: []int32{0, 1}, Agg: []float64{1, 10},
			Conc: [][]float64{{1, 3}},
		},
	}
	inst, err := mip.NewInstance(g, []float64{1, 1}, uniformCaps(g, 1000), 1, demands)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSolveIntegerFindsOptimum2x2(t *testing.T) {
	inst := inst2x2(t)
	res, err := SolveInteger(inst, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rounded {
		t.Error("result not marked rounded")
	}
	if !res.Sol.IsIntegral(1e-9) {
		t.Error("SolveInteger returned fractional y")
	}
	// Optimal cost is 2 (one remote unit each way).
	if res.Objective < 2-1e-6 {
		t.Errorf("objective %g below true optimum 2", res.Objective)
	}
	if res.Objective > 2+1e-6 {
		t.Errorf("objective %g, want optimal 2", res.Objective)
	}
	if v := res.Sol.Check(); v.Max() > 0.02 {
		t.Errorf("violations too large: %+v", v)
	}
	if res.LowerBound > res.Objective+1e-9 {
		t.Errorf("lower bound %g exceeds objective %g", res.LowerBound, res.Objective)
	}
	// Each video stored exactly at its hot office.
	if y := res.Sol.Videos[0].YAt(0); y != 1 {
		t.Errorf("video 0 not stored at office 0 (y=%g)", y)
	}
	if y := res.Sol.Videos[1].YAt(1); y != 1 {
		t.Errorf("video 1 not stored at office 1 (y=%g)", y)
	}
}

func TestLinkConstraintForcesReplication(t *testing.T) {
	// One video, heavy concurrent demand at both ends of a 3-office path,
	// links too small for remote streaming: the only near-feasible placement
	// stores copies at both ends.
	g := pathGraph(t, 3)
	demands := []mip.VideoDemand{{
		Video: 0, SizeGB: 1, RateMbps: 2,
		Js: []int32{0, 2}, Agg: []float64{10, 10},
		Conc: [][]float64{{10, 10}},
	}}
	inst, err := mip.NewInstance(g, []float64{1, 1, 1}, uniformCaps(g, 5), 1, demands)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveInteger(inst, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Sol.Check(); v.Link > 0.05 {
		t.Errorf("link violation %g; placement did not respect link capacity", v.Link)
	}
	cp := res.Sol.Copies()[0]
	if cp < 2 {
		t.Errorf("video has %d copies; link capacity requires at least 2", cp)
	}
	// Local service costs nothing, so the objective should be near zero.
	if res.Objective > 1 {
		t.Errorf("objective %g; expected near-local service", res.Objective)
	}
}

func TestSolveNoTimeSlices(t *testing.T) {
	// T = 0: pure disk-constrained placement (no link rows).
	g := pathGraph(t, 3)
	demands := []mip.VideoDemand{
		{Video: 0, SizeGB: 1, RateMbps: 2, Js: []int32{0}, Agg: []float64{5}, Conc: [][]float64{}},
		{Video: 1, SizeGB: 1, RateMbps: 2, Js: []int32{2}, Agg: []float64{5}, Conc: [][]float64{}},
	}
	inst, err := mip.NewInstance(g, []float64{1, 1, 1}, uniformCaps(g, 1000), 0, demands)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveInteger(inst, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > 1e-6 {
		t.Errorf("objective %g, want 0 (both videos fit locally)", res.Objective)
	}
	if v := res.Sol.Check(); v.Max() > 1e-6 {
		t.Errorf("violations: %+v", v)
	}
}

func TestZeroDemandVideosPlaced(t *testing.T) {
	g := pathGraph(t, 3)
	demands := []mip.VideoDemand{
		{Video: 0, SizeGB: 1, RateMbps: 2, Conc: [][]float64{{}}[0:0]},
		{Video: 1, SizeGB: 1, RateMbps: 2, Conc: nil},
	}
	// Fix Conc to match slices=0.
	demands[0].Conc = [][]float64{}
	demands[1].Conc = [][]float64{}
	inst, err := mip.NewInstance(g, []float64{1, 1, 1}, uniformCaps(g, 10), 0, demands)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveInteger(inst, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for vi := range res.Sol.Videos {
		var ysum float64
		for _, f := range res.Sol.Videos[vi].Open {
			ysum += f.V
		}
		if ysum < 1-1e-9 {
			t.Errorf("zero-demand video %d not stored (Σy = %g)", vi, ysum)
		}
		// Empty and non-nil, as mip.NewSolution makes it: deep-equality
		// checks and JSON output tell a nil Assign from an empty one.
		if a := res.Sol.Videos[vi].Assign; a == nil || len(a) != 0 {
			t.Errorf("zero-demand video %d: Assign = %#v, want empty and non-nil", vi, a)
		}
	}
	if v := res.Sol.Check(); v.Max() > 1e-9 {
		t.Errorf("violations: %+v", v)
	}
}

// randomInstance builds a medium random instance for convergence tests.
func randomInstance(t *testing.T, seed int64, nodes, videos int, diskFactor float64, linkCap float64) *mip.Instance {
	t.Helper()
	g, disk, caps, demands := randomProblem(t, seed, nodes, videos, diskFactor, linkCap)
	inst, err := mip.NewInstance(g, disk, caps, 1, demands)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// randomProblem returns the raw pieces of randomInstance's problem so tests
// can assemble the same instance through alternative construction paths
// (e.g. the streaming InstanceBuilder).
func randomProblem(t *testing.T, seed int64, nodes, videos int, diskFactor float64, linkCap float64) (*topology.Graph, []float64, []float64, []mip.VideoDemand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := topology.Random(nodes, 1.0, seed)
	demands := make([]mip.VideoDemand, videos)
	var totalSize float64
	for v := range demands {
		size := []float64{0.1, 0.5, 1, 2}[rng.Intn(4)]
		totalSize += size
		// Realistic demand sparsity: head videos are requested at most
		// offices, tail videos at one or two (the long-tail structure the
		// paper's traces exhibit, and what makes integer placements good).
		nj := 1 + int(float64(nodes-1)*math.Pow(float64(v+1), -0.5))
		if extra := rng.Intn(3); nj+extra <= nodes {
			nj += extra
		}
		js := rng.Perm(nodes)[:nj]
		intJs := make([]int, len(js))
		copy(intJs, js)
		// sort ascending
		for a := 1; a < len(intJs); a++ {
			for b := a; b > 0 && intJs[b-1] > intJs[b]; b-- {
				intJs[b-1], intJs[b] = intJs[b], intJs[b-1]
			}
		}
		d := mip.VideoDemand{Video: v, SizeGB: size, RateMbps: 2}
		for _, j := range intJs {
			d.Js = append(d.Js, int32(j))
			a := rng.Float64() * 20 * math.Pow(float64(v+1), -0.8)
			d.Agg = append(d.Agg, a)
		}
		conc := make([]float64, len(d.Js))
		for k := range conc {
			conc[k] = math.Ceil(d.Agg[k] / 4)
		}
		d.Conc = [][]float64{conc}
		demands[v] = d
	}
	disk := make([]float64, nodes)
	for i := range disk {
		disk[i] = totalSize * diskFactor / float64(nodes)
	}
	return g, disk, uniformCaps(g, linkCap), demands
}

func TestSolveMediumInstance(t *testing.T) {
	for _, tc := range []struct {
		name      string
		inst      *mip.Instance
		opts      Options
		maxGap    float64
		converges bool
	}{
		// An adversarial dense-random instance with tight disk (aggregate 2×
		// library). The paper reports typical observed gaps of 1-2% against
		// the Lagrangian bound; require ε-feasibility and a gap within that
		// band.
		{"tight-disk", randomInstance(t, 7, 10, 120, 2.0, 200), Options{Seed: 2, MaxPasses: 250}, 0.025, false},
		// A smaller one the descent must finish on: ε-feasible incumbent
		// within ε of the bound inside the pass budget.
		{"converges", randomInstance(t, 21, 8, 60, 2.0, 100), Options{Seed: 5, MaxPasses: 120}, 0.011, true},
	} {
		res, err := Solve(tc.inst, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if tc.converges && !res.Converged {
			t.Errorf("%s: did not converge: gap %g, violation %+v", tc.name, res.Gap, res.Violation)
		}
		if res.Violation.Disk > 0.011 || res.Violation.Link > 0.011 {
			t.Errorf("%s: ε-feasibility violated: %+v", tc.name, res.Violation)
		}
		if res.Violation.Unserved > 1e-6 || res.Violation.XExceedsY > 1e-6 {
			t.Errorf("%s: block constraints violated: %+v", tc.name, res.Violation)
		}
		if res.LowerBound > res.Objective*(1+1e-9) {
			t.Errorf("%s: LB %g above objective %g", tc.name, res.LowerBound, res.Objective)
		}
		if res.Gap > tc.maxGap {
			t.Errorf("%s: gap %g above %g", tc.name, res.Gap, tc.maxGap)
		}
	}
}

func TestSolveIntegerMediumInstance(t *testing.T) {
	inst := randomInstance(t, 11, 10, 150, 2.0, 200)
	res, err := SolveInteger(inst, Options{Seed: 2, MaxPasses: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sol.IsIntegral(integralTol) {
		t.Error("rounded solution not integral")
	}
	if res.Violation.Unserved > 1e-6 || res.Violation.XExceedsY > 1e-6 {
		t.Errorf("block constraints violated after rounding: %+v", res.Violation)
	}
	// The paper reports rounding keeps violations and gap small (§V-D:
	// ≤ ~4-5% on 5K-video instances).
	if res.Violation.Disk > 0.10 || res.Violation.Link > 0.10 {
		t.Errorf("rounding blew up violations: %+v", res.Violation)
	}
	if res.LowerBound > 0 && res.Gap > 0.25 {
		t.Errorf("rounded gap %g too large", res.Gap)
	}
}

func TestSolveDeterministic(t *testing.T) {
	a := mustSolve(t, randomInstance(t, 3, 8, 60, 2.0, 100), Options{Seed: 5, MaxPasses: 40})
	b := mustSolve(t, randomInstance(t, 3, 8, 60, 2.0, 100), Options{Seed: 5, MaxPasses: 40})
	if math.Abs(a.Objective-b.Objective) > 1e-9 || math.Abs(a.LowerBound-b.LowerBound) > 1e-9 {
		t.Errorf("same seed diverged: (%g,%g) vs (%g,%g)", a.Objective, a.LowerBound, b.Objective, b.LowerBound)
	}
}

func mustSolve(t *testing.T, inst *mip.Instance, o Options) *Result {
	t.Helper()
	res, err := Solve(inst, o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// White-box: incremental activity tracking must agree with a from-scratch
// recompute after several passes.
func TestActivityConsistency(t *testing.T) {
	inst := randomInstance(t, 13, 8, 80, 2.5, 150)
	s, err := newSolver(inst, Options{Seed: 4, MaxPasses: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.run(context.Background())
	saved := append([]float64(nil), s.act...)
	savedObj := s.obj
	s.recomputeState()
	for r := range s.act {
		scale := math.Max(1, math.Abs(s.act[r]))
		if math.Abs(s.act[r]-saved[r])/scale > 1e-6 {
			t.Errorf("row %d drift: incremental %g vs exact %g", r, saved[r], s.act[r])
		}
	}
	if math.Abs(savedObj-s.obj)/math.Max(1, s.obj) > 1e-6 {
		t.Errorf("objective drift: %g vs %g", savedObj, s.obj)
	}
}

func TestMergeFracs(t *testing.T) {
	s := &solver{mergeBuf: make([]mip.Frac, 0, 8)}
	mergeFracs := func(a []mip.Frac, ib int32, tau, prune float64) []mip.Frac {
		s.mergeFracs(a, ib, tau, prune)
		return append([]mip.Frac(nil), s.mergeBuf...)
	}
	a := []mip.Frac{{I: 1, V: 0.5}, {I: 3, V: 0.5}}
	got := mergeFracs(a, 2, 0.4, 1e-12)
	// (1-0.4)*a + 0.4*unit(2) = {1:0.3, 2:0.4, 3:0.3}
	want := []mip.Frac{{I: 1, V: 0.3}, {I: 2, V: 0.4}, {I: 3, V: 0.3}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	var sum float64
	for i := range got {
		if got[i].I != want[i].I || math.Abs(got[i].V-want[i].V) > 1e-12 {
			t.Fatalf("got %v, want %v", got, want)
		}
		sum += got[i].V
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("merged sum %g, want 1", sum)
	}
	// Existing office case.
	got = mergeFracs(a, 3, 0.5, 1e-12)
	if len(got) != 2 || math.Abs(got[1].V-0.75) > 1e-12 {
		t.Fatalf("merge into existing: got %v", got)
	}
	// Empty input.
	got = mergeFracs(nil, 4, 1, 1e-12)
	if len(got) != 1 || got[0].I != 4 || got[0].V != 1 {
		t.Fatalf("merge into empty: got %v", got)
	}
	// Insertion at the tail.
	got = mergeFracs([]mip.Frac{{I: 0, V: 1}}, 5, 0.25, 1e-12)
	if len(got) != 2 || got[1].I != 5 || math.Abs(got[1].V-0.25) > 1e-12 {
		t.Fatalf("tail insert: got %v", got)
	}
}

func TestExpClamp(t *testing.T) {
	if expClamp(-2*lineExpCap) != 0 {
		t.Error("large negative should underflow to 0")
	}
	if math.IsInf(expClamp(2*lineExpCap), 1) {
		t.Error("clamped exp must stay finite")
	}
	if expClamp(2*lineExpCap) != math.Exp(lineExpCap) {
		t.Error("positive overflow should saturate exactly at the cap")
	}
	if math.Abs(expClamp(1)-math.E) > 1e-12 {
		t.Error("expClamp(1) != e")
	}
}

// The two exponent caps are deliberately ordered: dual prices get multiplied
// by B/b_r and summed over paths, so they need more overflow headroom than
// the line-search derivative terms, which are only compared by sign and
// relative size.
func TestExpCapOrdering(t *testing.T) {
	if dualExpCap >= lineExpCap {
		t.Errorf("dualExpCap (%d) must be tighter than lineExpCap (%d)", dualExpCap, lineExpCap)
	}
	if !math.IsInf(math.Exp(2*lineExpCap), 1) {
		t.Error("caps only matter if the uncapped exponent would overflow")
	}
	if math.IsInf(math.Exp(lineExpCap), 1) {
		t.Error("lineExpCap itself must stay finite")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	d := o.withDefaults()
	if d.Epsilon != 0.01 || d.MaxPasses <= 0 || d.Workers <= 0 || d.LBEvery != 1 {
		t.Errorf("bad defaults: %+v", d)
	}
	if d.ChunkSize != 0 {
		t.Errorf("ChunkSize should stay 0 (adaptive) until instance size is known, got %d", d.ChunkSize)
	}
}

func TestSolveNilInstance(t *testing.T) {
	if _, err := Solve(nil, Options{}); err == nil {
		t.Error("nil instance accepted")
	}
}

func TestOnPassCallback(t *testing.T) {
	inst := randomInstance(t, 21, 6, 30, 2.5, 100)
	calls := 0
	_, err := Solve(inst, Options{Seed: 1, MaxPasses: 10, OnPass: func(pi PassInfo) {
		calls++
		if pi.Pass <= 0 {
			t.Errorf("bad pass number %d", pi.Pass)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("OnPass never invoked")
	}
}

func TestLowerBoundMonotoneAcrossPasses(t *testing.T) {
	inst := randomInstance(t, 17, 8, 60, 2.0, 150)
	var lbs []float64
	_, err := Solve(inst, Options{Seed: 1, MaxPasses: 30, OnPass: func(pi PassInfo) {
		lbs = append(lbs, pi.LowerBound)
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(lbs); i++ {
		if lbs[i] < lbs[i-1]-1e-9 {
			t.Errorf("lower bound decreased at pass %d: %g -> %g", i, lbs[i-1], lbs[i])
		}
	}
}

// TestRowDualsContract pins the exported dual certificate: RowDuals always
// has one entry per coupling row (n disk + L·T link), every entry is finite
// and non-negative, and the vector is a fresh copy per Result (mutating one
// result cannot corrupt another). internal/verify's CertifyLowerBound
// consumes exactly this contract.
func TestRowDualsContract(t *testing.T) {
	inst := randomInstance(t, 5, 6, 40, 2.5, 150)
	wantRows := inst.NumVHOs() + inst.G.NumLinks()*inst.Slices
	for _, solve := range []struct {
		name string
		fn   func() (*Result, error)
	}{
		{"Solve", func() (*Result, error) { return Solve(inst, Options{Seed: 4, MaxPasses: 60}) }},
		{"SolveInteger", func() (*Result, error) { return SolveInteger(inst, Options{Seed: 4, MaxPasses: 60}) }},
	} {
		t.Run(solve.name, func(t *testing.T) {
			res, err := solve.fn()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.RowDuals) != wantRows {
				t.Fatalf("RowDuals has %d entries, want %d", len(res.RowDuals), wantRows)
			}
			for r, v := range res.RowDuals {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("RowDuals[%d] = %g", r, v)
				}
			}
			// A second solve must return an independent copy.
			res2, err := solve.fn()
			if err != nil {
				t.Fatal(err)
			}
			before := res2.RowDuals[0]
			res.RowDuals[0] = math.NaN()
			if res2.RowDuals[0] != before {
				t.Error("RowDuals aliases solver-internal state across results")
			}
		})
	}
}
