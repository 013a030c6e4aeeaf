package facloc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomProblem(rng *rand.Rand, n, k int, openScale float64) *Problem {
	p := &Problem{
		Open:   make([]float64, n),
		Assign: make([]float64, k*n),
	}
	for i := range p.Open {
		p.Open[i] = rng.Float64() * openScale
	}
	for idx := range p.Assign {
		p.Assign[idx] = rng.Float64() * 10
	}
	return p
}

func solutionCost(p *Problem, s Solution) float64 {
	var c float64
	openSet := make(map[int]bool)
	for _, i := range s.Open {
		c += p.Open[i]
		openSet[i] = true
	}
	for k, i := range s.Assign {
		c += p.Row(k)[i]
	}
	_ = openSet
	return c
}

func TestValidate(t *testing.T) {
	for _, good := range []*Problem{
		{Open: []float64{1}, Assign: []float64{2}},
		{Open: []float64{1, 1}, Assign: []float64{1, 2, 3, 4}, Order: []int32{1, 0, 0, 1}},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid problem rejected: %v", err)
		}
	}
	bad := []*Problem{
		{},
		{Open: []float64{-1}},
		{Open: []float64{1, 1}, Assign: []float64{1, 2, 3}},
		{Open: []float64{1}, Assign: []float64{-3}},
		{Open: []float64{math.NaN()}},
		{Open: []float64{math.Inf(1)}},
		{Open: []float64{1}, Assign: []float64{math.Inf(1)}},
		// Orders that are not a permutation of 0..n−1 in every row: short,
		// a repeated office, an office out of range either way.
		{Open: []float64{1, 1}, Assign: []float64{1, 2, 3, 4}, Order: []int32{0, 1}},
		{Open: []float64{1, 1}, Assign: []float64{1, 2, 3, 4}, Order: []int32{0, 1, 1, 1}},
		{Open: []float64{1, 1}, Assign: []float64{1, 2, 3, 4}, Order: []int32{0, 1, 2, 0}},
		{Open: []float64{1, 1}, Assign: []float64{1, 2, 3, 4}, Order: []int32{-1, 0, 0, 1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
}

func TestSolveSingleFacility(t *testing.T) {
	// Facility 1 is clearly best: free to open, cheap to serve.
	p := &Problem{
		Open:   []float64{5, 0, 5},
		Assign: []float64{10, 1, 10, 10, 1, 10},
	}
	var s Solver
	sol := s.Solve(p)
	if len(sol.Open) != 1 || sol.Open[0] != 1 {
		t.Errorf("Open = %v, want [1]", sol.Open)
	}
	if sol.Assign[0] != 1 || sol.Assign[1] != 1 {
		t.Errorf("Assign = %v, want all 1", sol.Assign)
	}
	if math.Abs(sol.Cost-2) > 1e-9 {
		t.Errorf("Cost = %g, want 2", sol.Cost)
	}
}

func TestSolveOpensMultiple(t *testing.T) {
	// Two demand clusters, each near its own facility; opening both wins.
	p := &Problem{
		Open: []float64{1, 1},
		Assign: []float64{
			0, 100,
			100, 0,
		},
	}
	var s Solver
	sol := s.Solve(p)
	if len(sol.Open) != 2 {
		t.Errorf("Open = %v, want both facilities", sol.Open)
	}
	if math.Abs(sol.Cost-2) > 1e-9 {
		t.Errorf("Cost = %g, want 2", sol.Cost)
	}
}

func TestSolveZeroDemands(t *testing.T) {
	p := &Problem{Open: []float64{3, 1, 2}}
	var s Solver
	sol := s.Solve(p)
	if len(sol.Open) != 1 || sol.Open[0] != 1 {
		t.Errorf("Open = %v, want [1] (cheapest facility still opened)", sol.Open)
	}
	if math.Abs(sol.Cost-1) > 1e-9 {
		t.Errorf("Cost = %g, want 1", sol.Cost)
	}
}

func TestSolveMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	worst := 1.0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		k := 1 + rng.Intn(10)
		p := randomProblem(rng, n, k, 5)
		var s Solver
		got := s.Solve(p)
		want := BruteForce(p)
		if got.Cost < want.Cost-1e-9 {
			t.Fatalf("trial %d: local search cost %g below optimum %g (impossible)", trial, got.Cost, want.Cost)
		}
		ratio := got.Cost / math.Max(want.Cost, 1e-12)
		if ratio > worst {
			worst = ratio
		}
		// Charikar–Guha local search is a 3-approximation in theory; in
		// practice on these sizes it should be essentially optimal.
		if ratio > 1.05 {
			t.Errorf("trial %d: ratio %g too far from optimal (got %g, want %g)", trial, ratio, got.Cost, want.Cost)
		}
	}
	t.Logf("worst local-search/optimal ratio over 200 random instances: %.4f", worst)
}

func TestSolutionCostConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		p := randomProblem(rng, 6, 8, 3)
		var s Solver
		sol := s.Solve(p)
		if recomputed := solutionCost(p, sol); math.Abs(recomputed-sol.Cost) > 1e-9 {
			t.Fatalf("trial %d: reported cost %g != recomputed %g", trial, sol.Cost, recomputed)
		}
		// Every assignment must point at an open facility.
		open := make(map[int]bool)
		for _, i := range sol.Open {
			open[i] = true
		}
		for k, i := range sol.Assign {
			if !open[i] {
				t.Fatalf("trial %d: demand %d assigned to closed facility %d", trial, k, i)
			}
		}
	}
}

func TestDualAscentIsValidLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		k := 1 + rng.Intn(10)
		p := randomProblem(rng, n, k, 5)
		var s Solver
		lb, _ := s.DualAscent(p)
		opt := BruteForce(p).Cost
		if lb > opt+1e-9 {
			t.Fatalf("trial %d: dual ascent bound %g exceeds integer optimum %g", trial, lb, opt)
		}
	}
}

func TestDualAscentTightOnEasyInstances(t *testing.T) {
	// With free facilities the LP optimum is Σ_k min_i g_ki and dual ascent
	// reaches it exactly.
	p := &Problem{
		Open:   []float64{0, 0, 0},
		Assign: []float64{3, 1, 2, 5, 9, 4},
	}
	var s Solver
	lb, _ := s.DualAscent(p)
	if math.Abs(lb-5) > 1e-9 {
		t.Errorf("dual ascent = %g, want 5", lb)
	}
}

func TestDualAscentZeroDemands(t *testing.T) {
	p := &Problem{Open: []float64{4, 2, 9}}
	var s Solver
	lb, _ := s.DualAscent(p)
	if lb != 2 {
		t.Errorf("zero-demand bound = %g, want min open cost 2", lb)
	}
}

// DualAscent on a warmed Solver allocates nothing, with an Order (whose
// rows partly need the repair) and without one (index order, repaired on
// most rows of random costs).
func TestDualAscentZeroAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	withOrder := placementProblem(rng, 55, 8)
	noOrder := randomProblem(rng, 55, 8, 5)
	var s Solver
	for _, p := range []*Problem{withOrder, noOrder} {
		s.DualAscent(p)
	}
	for _, p := range []*Problem{withOrder, noOrder} {
		if allocs := testing.AllocsPerRun(20, func() { s.DualAscent(p) }); allocs != 0 {
			t.Errorf("DualAscent (order %v) allocates %g per run after warm-up, want 0", p.Order != nil, allocs)
		}
	}
}

func TestDualAscentFeasibility(t *testing.T) {
	// The returned duals must satisfy Σ_k (v_k − g_ki)+ ≤ F_i.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, 5, 7, 4)
		var s Solver
		_, v := s.DualAscent(p)
		for i := range p.Open {
			var used float64
			for k := 0; k < p.NumDemands(); k++ {
				if d := v[k] - p.Row(k)[i]; d > 0 {
					used += d
				}
			}
			if used > p.Open[i]+1e-6 {
				t.Fatalf("trial %d: facility %d dual constraint violated: %g > %g", trial, i, used, p.Open[i])
			}
		}
	}
}

// dualFeasible reports the first facility whose dual constraint
// Σ_k (v_k − g_ki)+ ≤ F_i the vector v breaks beyond rounding, or −1.
func dualFeasible(p *Problem, v []float64) int {
	for i := range p.Open {
		var used float64
		for k := 0; k < p.NumDemands(); k++ {
			if d := v[k] - p.Row(k)[i]; d > 0 {
				used += d
			}
		}
		if used > p.Open[i]+1e-9*(1+p.Open[i]) {
			return i
		}
	}
	return -1
}

// DualAdjust leaves a feasible dual vector whose sum it returns, never below
// DualAscent's bound and never above the integer optimum, on random and
// placement-shaped problems (placementProblem and localProblem). On random 10 × 12 problems it closes most of the
// gap between the ascent's bound and the integer optimum (72 % of it over
// these 200).
func TestDualAdjustSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var s Solver
	var closed, gap float64
	for trial := 0; trial < 600; trial++ {
		var p *Problem
		switch trial % 3 {
		case 0:
			p = randomProblem(rng, 10, 12, 5)
		case 1:
			p = placementProblem(rng, 2+rng.Intn(9), 1+rng.Intn(10))
		default:
			p = localProblem(rng, 55, 8)
		}
		plain, v := s.DualAscent(p)
		adj := s.DualAdjust(p)
		var sum float64
		for _, vk := range v {
			sum += vk
		}
		if sum != adj {
			t.Fatalf("trial %d: DualAdjust returns %v, its duals sum to %v", trial, adj, sum)
		}
		if adj < plain {
			t.Fatalf("trial %d: adjusted bound %v below the ascent's %v", trial, adj, plain)
		}
		if i := dualFeasible(p, v); i >= 0 {
			t.Fatalf("trial %d: adjusted duals infeasible at facility %d", trial, i)
		}
		if p.NumFacilities() > 10 {
			continue
		}
		opt := BruteForce(p).Cost
		if adj > opt+1e-9*(1+opt) {
			t.Fatalf("trial %d: adjusted bound %v above the integer optimum %v", trial, adj, opt)
		}
		if trial%3 == 0 {
			closed += adj - plain
			gap += opt - plain
		}
	}
	if closed < 0.5*gap {
		t.Errorf("the adjustment closed %.1f%% of the random problems' gap to the optimum, want ≥ 50%%", 100*closed/gap)
	}
}

// DualAdjust on a warmed Solver allocates nothing.
func TestDualAdjustZeroAllocations(t *testing.T) {
	p := localProblem(rand.New(rand.NewSource(29)), 55, 8)
	var s Solver
	s.DualAscent(p)
	s.DualAdjust(p)
	if allocs := testing.AllocsPerRun(20, func() { s.DualAscent(p); s.DualAdjust(p) }); allocs != 0 {
		t.Errorf("DualAscent + DualAdjust allocate %g per run after warm-up, want 0", allocs)
	}
}

// Property: on random instances with varying shapes, LB ≤ heuristic cost
// always, and the heuristic solution serves every demand.
func TestSolverSandwichProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 1
		k := int(kRaw % 12)
		p := randomProblem(rng, n, k, 6)
		var s Solver
		lb, _ := s.DualAscent(p)
		sol := s.Solve(p)
		if len(sol.Assign) != k {
			return false
		}
		return lb <= sol.Cost+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Solver reuse across problems of different shapes must not leak state.
func TestSolverReuse(t *testing.T) {
	var s Solver
	rng := rand.New(rand.NewSource(5))
	p1 := randomProblem(rng, 10, 12, 3)
	p2 := randomProblem(rng, 3, 2, 3)
	first := s.Solve(p1).Cost
	_ = s.Solve(p2)
	var fresh Solver
	if again := s.Solve(p1).Cost; math.Abs(again-first) > 1e-9 {
		t.Errorf("reused solver gives %g, fresh run gave %g", again, first)
	}
	if ref := fresh.Solve(p1).Cost; math.Abs(ref-first) > 1e-9 {
		t.Errorf("fresh solver gives %g, want %g", ref, first)
	}
}

// SolveInto, SolveQuickInto and SolveWarmInto must reuse out's backing arrays
// (and the solver its scratch) and agree with the allocating wrappers, and a
// warm start may change the path taken but never worsen correctness
// invariants (open set serves every demand).
func TestSolveIntoReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := randomProblem(rng, 8, 10, 3)
	var s Solver
	want := s.Solve(p)
	var out Solution
	s.SolveInto(p, &out)
	if math.Abs(out.Cost-want.Cost) > 1e-12 {
		t.Fatalf("SolveInto cost %g != Solve cost %g", out.Cost, want.Cost)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.SolveInto(p, &out)
	})
	if allocs != 0 {
		t.Errorf("SolveInto allocates %g per run after warm-up, want 0", allocs)
	}
	warm := []int32{1, 4, 4, 6}
	for _, c := range []struct {
		name string
		run  func(out *Solution)
	}{
		{"SolveQuickInto", func(out *Solution) { s.SolveQuickInto(p, out, nil) }},
		{"SolveQuickInto warm", func(out *Solution) { s.SolveQuickInto(p, out, warm) }},
		{"SolveWarmInto", func(out *Solution) { s.SolveWarmInto(p, out, warm) }},
	} {
		var q Solution
		c.run(&q)
		if allocs := testing.AllocsPerRun(20, func() { c.run(&q) }); allocs != 0 {
			t.Errorf("%s allocates %g per run after warm-up, want 0", c.name, allocs)
		}
	}
}

func TestSolveQuickWarmStartValid(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		k := 1 + rng.Intn(10)
		p := randomProblem(rng, n, k, 5)
		var s Solver
		cold := s.SolveQuick(p)
		warm := make([]int32, len(cold.Open))
		for a, i := range cold.Open {
			warm[a] = int32(i)
		}
		var out Solution
		s.SolveQuickInto(p, &out, warm)
		if recomputed := solutionCost(p, out); math.Abs(recomputed-out.Cost) > 1e-9 {
			t.Fatalf("trial %d: warm-start cost %g != recomputed %g", trial, out.Cost, recomputed)
		}
		if len(out.Assign) != k {
			t.Fatalf("trial %d: warm-start solution has %d assignments, want %d", trial, len(out.Assign), k)
		}
		// Seeding with the cold solution's own open set cannot be worse than
		// the cold result: the first (cheapest-single) start is shared and
		// local search only improves.
		if out.Cost > cold.Cost+1e-9 {
			t.Fatalf("trial %d: warm start worsened cost %g -> %g", trial, cold.Cost, out.Cost)
		}
	}
}

func BenchmarkSolve55x55(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, 55, 55, 5)
	var s Solver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(p)
	}
}

func BenchmarkDualAscent55x55(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, 55, 55, 5)
	var s Solver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DualAscent(p)
	}
}

// The 55×8 benchmarks are the shape the solver actually sees: a Backbone55
// block has a mean of 8.4 demand offices (EXPERIMENTS.md, "Where a solve's
// time goes"), and a rounding-phase re-solve starts from a warm open set a
// move or two from the optimum — here the optimum of the same costs
// perturbed by ±5 %. Each iteration solves the
// next of 64 different problems, as the solver does: on one problem solved
// over and over the branch predictor learns every data-dependent branch and
// the benchmark times a loop no block solve ever runs.
type benchCase struct {
	p    *Problem
	warm []int32
}

func bench55x8() []benchCase {
	rng := rand.New(rand.NewSource(1))
	cases := make([]benchCase, 64)
	var s Solver
	for c := range cases {
		p := randomProblem(rng, 55, 8, 5)
		near := &Problem{Open: slices.Clone(p.Open), Assign: slices.Clone(p.Assign)}
		for i := range near.Open {
			near.Open[i] *= 0.95 + 0.1*rng.Float64()
		}
		for idx := range near.Assign {
			near.Assign[idx] *= 0.95 + 0.1*rng.Float64()
		}
		var warm []int32
		for _, i := range s.Solve(near).Open {
			warm = append(warm, int32(i))
		}
		cases[c] = benchCase{p, warm}
	}
	return cases
}

func BenchmarkSolve55x8(b *testing.B) {
	cases := bench55x8()
	var s Solver
	var out Solution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SolveInto(cases[i%len(cases)].p, &out)
	}
}

func BenchmarkSolveWarm55x8(b *testing.B) {
	cases := bench55x8()
	var s Solver
	var out Solution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cases[i%len(cases)]
		s.SolveWarmInto(c.p, &out, c.warm)
	}
}

func BenchmarkSolveQuickWarm55x8(b *testing.B) {
	cases := bench55x8()
	var s Solver
	var out Solution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cases[i%len(cases)]
		s.SolveQuickInto(c.p, &out, c.warm)
	}
}

// BenchmarkSolveQuickCold55x8 is the polish subgradient's call, a cold
// SolveQuickInto, on 64 placement-shaped problems (placementProblem): open
// costs far above the row spread, where the all-open start's first drop
// pass closes most offices. The corpus is drawn as bench55x8 draws its own.
func BenchmarkSolveQuickCold55x8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cases := make([]*Problem, 64)
	for c := range cases {
		cases[c] = placementProblem(rng, 55, 8)
	}
	var s Solver
	var out Solution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SolveQuickInto(cases[i%len(cases)], &out, nil)
	}
}

// BenchmarkDualAscentPlacement55x8 is the bound's call on placement-shaped
// blocks: 64 placementProblem blocks, each with its hop-level order, as the
// block builders hand them over. Their rows need the repair far more often
// than the traffic's (EXPERIMENTS.md, "The block bound's rows").
// BenchmarkDualAscent55x8 and BenchmarkDualAscent55x55 walk random rows
// from index order instead, which no caller sends.
func BenchmarkDualAscentPlacement55x8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cases := make([]*Problem, 64)
	for c := range cases {
		cases[c] = placementProblem(rng, 55, 8)
	}
	var s Solver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DualAscent(cases[i%len(cases)])
	}
}

// BenchmarkDualAscentLocal55x8 and BenchmarkDualAdjust55x8 are the plain and
// the certify tier's block bound on the same 64 localProblem blocks: the
// ascent, then the ascent and the adjustment. Their ratio is what an adjusted
// bound sweep's kernel costs over a plain one's; on placementProblem's blocks
// the adjustment has nothing to do.
func BenchmarkDualAscentLocal55x8(b *testing.B) {
	benchLocalBound(b, false)
}

func BenchmarkDualAdjust55x8(b *testing.B) {
	benchLocalBound(b, true)
}

func benchLocalBound(b *testing.B, adjust bool) {
	rng := rand.New(rand.NewSource(1))
	cases := make([]*Problem, 64)
	for c := range cases {
		cases[c] = localProblem(rng, 55, 8)
	}
	var s Solver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := cases[i%len(cases)]
		s.DualAscent(p)
		if adjust {
			s.DualAdjust(p)
		}
	}
}

func BenchmarkDualAscent55x8(b *testing.B) {
	cases := bench55x8()
	var s Solver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DualAscent(cases[i%len(cases)].p)
	}
}

// FuzzMoveGainBound checks the proof behind localSearch's skip: whenever
// cannotGain holds for x0 and the left-to-right sum of best1, moveGain is at
// most 1e-12, for any non-negative finite best1, alt and col. Each value is
// a mantissa byte scaled by 2^e over a wide exponent range, so the sums
// round; x0 sits a few ulps around −Σ best1 (the margin's edge) or at an
// arbitrary value the input's bits give.
func FuzzMoveGainBound(f *testing.F) {
	f.Add(uint8(0), int16(0), []byte{200, 60, 1, 60, 255, 2, 7, 10, 9, 80, 3, 40})
	f.Add(uint8(1), int16(-3), []byte{1, 0, 255, 120, 255, 0, 128, 64, 3, 3, 3, 3, 3, 3})
	f.Add(uint8(2), int16(40), []byte{255, 127, 255, 127, 1, 0, 1, 0, 1, 0, 2, 90})
	// 2²⁰ then ten 2⁻³³ that Σ best1 rounds away, x0 one ulp below −Σ: the
	// float gain is 4 ulps of 2²⁰ although x0 + Σ best1 < 0.
	absorbed := []byte{1, 84, 0, 0, 0, 0}
	for range 10 {
		absorbed = append(absorbed, 1, 31, 0, 0, 0, 0)
	}
	f.Add(uint8(0), int16(1), absorbed)
	f.Fuzz(func(t *testing.T, mode uint8, nudge int16, data []byte) {
		k := min(len(data)/6, 64)
		val := func(at int) float64 {
			return float64(data[at]) * math.Ldexp(1, int(data[at+1]%128)-64)
		}
		best1, alt, col := make([]float64, k), make([]float64, k), make([]float64, k)
		for x := 0; x < k; x++ {
			best1[x], alt[x], col[x] = val(6*x), val(6*x+2), val(6*x+4)
		}
		var sum float64
		for _, b := range best1 {
			sum += b
		}
		x0 := float64(nudge) * math.Ldexp(1, int(mode)%128-64)
		if mode%2 == 0 {
			// −sum moved by nudge ulps of sum and scaled by (1 + mode·2⁻³⁶):
			// just inside and just outside the skip's 1e-9 margin.
			x0 = -math.Float64frombits(uint64(int64(math.Float64bits(sum))+int64(nudge))) * (1 + float64(mode)*0x1p-36)
		}
		if math.IsNaN(x0) || math.IsInf(x0, 0) {
			return
		}
		if cannotGain(x0, sum) {
			if g := moveGain(x0, best1, alt, col); g > 1e-12 {
				t.Fatalf("cannotGain(%v, %v) but moveGain = %v\nbest1 %v\nalt %v\ncol %v", x0, sum, g, best1, alt, col)
			}
		}
	})
}
