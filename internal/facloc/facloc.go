// Package facloc solves the uncapacitated facility location (UFL)
// subproblems that arise when the placement LP is decomposed per video
// (§V-C): choosing where to store one video (facility opening, cost F_i from
// the disk duals) and how to serve each office's demand for it (assignment
// cost g_kj from the transfer objective and link duals).
//
// Two solvers are provided:
//
//   - DualAscent: an Erlenkotter-style dual ascent that produces a feasible
//     dual solution and hence a valid lower bound on the UFL *LP* optimum.
//     The exponential-potential-function driver needs valid per-block lower
//     bounds for its Lagrangian bound LR(λ) ≤ OPT to be sound, so it cannot
//     use a primal heuristic value there.
//
//   - Solve: greedy opening followed by add/drop/swap local search in the
//     spirit of Charikar–Guha, producing the integer solution used both as a
//     gradient-descent direction in the LP phase and as the rounded
//     placement in the rounding phase (§V-D).
//
// Problems here are small (facilities = offices, |V| ≈ 23..55 in the paper's
// networks) but solved millions of times, so every scan is an O(K) or O(n)
// pass over contiguous memory: per-demand scans (DualAscent, best/second-best
// rescans) read rows of the Problem's flat row-major cost matrix, per-facility
// scans (the local search's add and swap gains) read columns of a
// facility-major copy the Solver keeps in its reusable scratch space.
package facloc

import (
	"fmt"
	"math"
)

// Problem is one UFL instance: n facilities, K demand points.
// Minimize Σ_i F_i·y_i + Σ_k g[k][i(k)] over facility sets and assignments.
// All costs must be non-negative (they are built from non-negative duals and
// transfer costs).
type Problem struct {
	// Open[i] is the cost F_i of opening facility i.
	Open []float64
	// Assign is the K×n assignment-cost matrix in flat row-major layout:
	// Assign[k*n+i] is the cost of serving demand point k from facility i,
	// with n = len(Open). The flat layout keeps the per-demand scans of the
	// inner solvers on contiguous memory.
	Assign []float64
}

// NumFacilities returns n.
func (p *Problem) NumFacilities() int { return len(p.Open) }

// NumDemands returns K.
func (p *Problem) NumDemands() int {
	if len(p.Open) == 0 {
		return 0
	}
	return len(p.Assign) / len(p.Open)
}

// Row returns demand k's assignment-cost row (length n).
func (p *Problem) Row(k int) []float64 {
	n := len(p.Open)
	return p.Assign[k*n : k*n+n : k*n+n]
}

// Reshape sets the matrix to K rows of n = len(Open) columns, reusing the
// backing array when possible. Contents are unspecified; callers fill every
// entry.
func (p *Problem) Reshape(k int) {
	sz := k * len(p.Open)
	if cap(p.Assign) < sz {
		p.Assign = make([]float64, sz)
	}
	p.Assign = p.Assign[:sz]
}

// Validate checks structural consistency and the cost contract (finite,
// non-negative entries — see Solver); solver entry points call it only
// in debug paths, so malformed problems surface in tests rather than deep in
// solver loops.
func (p *Problem) Validate() error {
	n := len(p.Open)
	if n == 0 {
		return fmt.Errorf("facloc: no facilities")
	}
	for i, f := range p.Open {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 1) {
			return fmt.Errorf("facloc: open cost %d is %g", i, f)
		}
	}
	if len(p.Assign)%n != 0 {
		return fmt.Errorf("facloc: assign matrix has %d entries, not a multiple of %d facilities", len(p.Assign), n)
	}
	for idx, g := range p.Assign {
		if g < 0 || math.IsNaN(g) || math.IsInf(g, 1) {
			return fmt.Errorf("facloc: assign cost (%d,%d) is %g", idx/n, idx%n, g)
		}
	}
	return nil
}

// Solution is an integer UFL solution.
type Solution struct {
	// Open lists the opened facilities, ascending.
	Open []int
	// Assign[k] is the facility serving demand point k (-1 when K == 0 rows
	// never occur; every demand point is assigned).
	Assign []int
	// Cost is the total cost of the solution.
	Cost float64
}

// Solver carries reusable scratch space. A zero Solver is ready to use; it
// is not safe for concurrent use — use one Solver per goroutine.
//
// Cost contract: every entry of Problem.Open and Problem.Assign is finite and
// non-negative — what Validate checks, and what epf's clampDual guarantees of
// the duals the costs are built from. The local-search gains (moveGain) rely
// on it: x − x is +0 and min is a plain two-way select only on finite values.
type Solver struct {
	// WarmTries / WarmHits count SolveQuickInto / SolveWarmInto calls that
	// received a warm open set, and the subset where the search improved on
	// it (SolveQuickInto: the warm local optimum beat the cold first start;
	// SolveWarmInto: the search moved off the seed). Plain counters (no
	// atomics): each Solver instance is single-goroutine by contract; the epf
	// solver keeps one per worker and folds these into its Stats on the
	// driver goroutine.
	WarmTries int64
	WarmHits  int64

	// colT is the facility-major copy of the current problem's assignment
	// matrix, colT[i*K+k] = p.Assign[k*n+i], refilled by reserve on every
	// solve: the local search's gains and openFacility walk one facility's
	// costs over all demands, which is a stride-n column of the row-major
	// Problem but a contiguous run here, beside the equally contiguous best1.
	colT         []float64
	alt0         []float64 // swap sweep: cheapest open facility other than the one closing, per k
	best1, best2 []float64 // cheapest and second-cheapest open assignment per k
	bestI        []int     // facility achieving best1
	bestI2       []int     // facility achieving best2
	open         []bool
	// openList mirrors open as an ascending index list, so per-demand
	// rescans and open-set sums walk only the open facilities (usually a
	// handful out of n) in the same ascending order the historical
	// full-array scans used — identical candidate sequence, fewer reads.
	openList    []int
	openScratch []bool
	nOpen       int
	gainBuf     []float64
	// dual-ascent scratch
	v       []float64
	slack   []float64
	order   []int
	contrib []int
}

// reserve sizes the scratch for p (n facilities, k demands), clears the open
// set and loads p's columns into colT.
func (s *Solver) reserve(p *Problem, n, k int) {
	if cap(s.best1) < k {
		s.alt0 = make([]float64, k)
		s.best1 = make([]float64, k)
		s.best2 = make([]float64, k)
		s.bestI = make([]int, k)
		s.bestI2 = make([]int, k)
	}
	if cap(s.colT) < n*k {
		s.colT = make([]float64, n*k)
	}
	s.colT = s.colT[:n*k]
	for kd := 0; kd < k; kd++ {
		for i, g := range p.Row(kd) {
			s.colT[i*k+kd] = g
		}
	}
	s.alt0 = s.alt0[:k]
	s.best1 = s.best1[:k]
	s.best2 = s.best2[:k]
	s.bestI = s.bestI[:k]
	s.bestI2 = s.bestI2[:k]
	if cap(s.open) < n {
		s.open = make([]bool, n)
		s.gainBuf = make([]float64, n)
		s.openList = make([]int, 0, n)
	}
	s.open = s.open[:n]
	s.gainBuf = s.gainBuf[:n]
	for i := range s.open {
		s.open[i] = false
	}
	s.openList = s.openList[:0]
	s.nOpen = 0
}

// rebuildOpenList resyncs openList from the open booleans (used after bulk
// edits of the open set; incremental moves maintain the list directly).
func (s *Solver) rebuildOpenList() {
	s.openList = s.openList[:0]
	for i, o := range s.open {
		if o {
			s.openList = append(s.openList, i)
		}
	}
}

// refreshBests recomputes best/second-best open facilities for every demand.
func (s *Solver) refreshBests(p *Problem) {
	for k := range s.best1 {
		s.rescanDemand(p, k)
	}
}

// rescanDemand recomputes demand k's best and second-best open facilities,
// scanning only the open list (ascending, matching the historical full-row
// scan's candidate order).
func (s *Solver) rescanDemand(p *Problem, k int) {
	row := p.Row(k)
	b1, b2 := math.Inf(1), math.Inf(1)
	bi, bi2 := -1, -1
	for _, i := range s.openList {
		g := row[i]
		if g < b1 {
			b2, bi2 = b1, bi
			b1, bi = g, i
		} else if g < b2 {
			b2, bi2 = g, i
		}
	}
	s.best1[k], s.best2[k] = b1, b2
	s.bestI[k], s.bestI2[k] = bi, bi2
}

// openFacility opens i and updates the best trackers incrementally (O(K)).
// On a tie (g == best1[k]) the incumbent keeps bestI[k]: the tracked pair is
// path-dependent on ties, and the search trajectory depends on it.
func (s *Solver) openFacility(i int) {
	s.open[i] = true
	s.nOpen++
	lst := append(s.openList, i)
	for a := len(lst) - 1; a > 0 && lst[a-1] > i; a-- {
		lst[a], lst[a-1] = lst[a-1], i
	}
	s.openList = lst
	kk := len(s.best1)
	for k, g := range s.colT[i*kk : i*kk+kk] {
		if g < s.best1[k] {
			s.best2[k], s.bestI2[k] = s.best1[k], s.bestI[k]
			s.best1[k], s.bestI[k] = g, i
		} else if g < s.best2[k] {
			s.best2[k], s.bestI2[k] = g, i
		}
	}
}

// closeFacility closes i, rescanning only the demands it backed.
func (s *Solver) closeFacility(p *Problem, i int) {
	s.open[i] = false
	s.nOpen--
	for a, x := range s.openList {
		if x == i {
			s.openList = append(s.openList[:a], s.openList[a+1:]...)
			break
		}
	}
	for k := range s.best1 {
		if s.bestI[k] == i || s.bestI2[k] == i {
			s.rescanDemand(p, k)
		}
	}
}

// openSetCost returns the total cost of the currently open set given fresh
// bests.
func (s *Solver) openSetCost(p *Problem) float64 {
	var total float64
	for _, i := range s.openList {
		total += p.Open[i]
	}
	for k := range s.best1 {
		total += s.best1[k]
	}
	return total
}

// cheapestSingle returns the facility with the cheapest total cost when it
// alone is open. The accumulation runs row-major over the cost matrix;
// every facility's sum is still Open[i] plus its column entries in
// ascending k order, the same addition sequence as a per-column scan.
func (s *Solver) cheapestSingle(p *Problem, kk int) int {
	n := len(p.Open)
	acc := s.gainBuf
	copy(acc, p.Open)
	for k := 0; k < kk; k++ {
		row := p.Row(k)
		for i := 0; i < n; i++ {
			acc[i] += row[i]
		}
	}
	bestSingle, bestCost := 0, math.Inf(1)
	for i := 0; i < n; i++ {
		if acc[i] < bestCost {
			bestSingle, bestCost = i, acc[i]
		}
	}
	return bestSingle
}

// Solve computes an integer UFL solution via local search from two
// complementary starts — the cheapest single facility (greedy-add start) and
// the all-open set (drop start) — keeping the better result. The problem
// must have at least one facility. Even with zero demand points, one
// facility is opened (every video must be stored somewhere — constraints
// (3)+(4) imply Σ_i y_i^m ≥ 1).
func (s *Solver) Solve(p *Problem) Solution {
	var out Solution
	s.SolveInto(p, &out)
	return out
}

// SolveInto is Solve writing the result into out, reusing its backing
// arrays (zero allocations once out has been used for a same-shape problem).
func (s *Solver) SolveInto(p *Problem, out *Solution) {
	n, kk := p.NumFacilities(), p.NumDemands()
	if n == 0 {
		panic("facloc: Solve with no facilities")
	}
	s.reserve(p, n, kk)

	// Start 1: the single facility with the cheapest total cost.
	s.open[s.cheapestSingle(p, kk)] = true
	s.nOpen = 1
	s.rebuildOpenList()
	s.refreshBests(p)
	s.localSearch(p, true)
	cost1 := s.openSetCost(p)
	if cap(s.openScratch) < n {
		s.openScratch = make([]bool, n)
	}
	open1 := s.openScratch[:n]
	copy(open1, s.open)
	nOpen1 := s.nOpen

	// Start 2: everything open, letting drop moves pare the set down.
	for i := range s.open {
		s.open[i] = true
	}
	s.nOpen = n
	s.rebuildOpenList()
	s.refreshBests(p)
	s.localSearch(p, true)
	if cost1 <= s.openSetCost(p) {
		copy(s.open, open1)
		s.nOpen = nOpen1
		s.rebuildOpenList()
		s.refreshBests(p)
	}
	s.extractInto(p, kk, out)
}

// SolveWarm is Solve started from a warm open set (ascending facility
// indices) instead of the two cold starts: the full add/drop/swap local
// search runs from the warm set alone. With an empty warm set it is exactly
// Solve. Used by the epf rounding phase under cross-period warm starts,
// where the previous period's placement usually sits a couple of moves from
// the new optimum and the cold starts' long climbs are the dominant cost.
func (s *Solver) SolveWarm(p *Problem, warm []int32) Solution {
	var out Solution
	s.SolveWarmInto(p, &out, warm)
	return out
}

// SolveWarmInto is SolveWarm writing the result into out, reusing its
// backing arrays.
func (s *Solver) SolveWarmInto(p *Problem, out *Solution, warm []int32) {
	if len(warm) == 0 {
		s.SolveInto(p, out)
		return
	}
	n, kk := p.NumFacilities(), p.NumDemands()
	if n == 0 {
		panic("facloc: SolveWarm with no facilities")
	}
	s.reserve(p, n, kk)

	// Single start: the warm open set. The full add/drop/swap search runs
	// from it, so any configuration reachable from the cheapest-single or
	// all-open starts by improving moves is reachable from here too; what is
	// saved is the cold starts' long climbs, which is most of the rounding
	// bill when the warm set already sits near the optimum.
	s.WarmTries++
	for i := range s.open {
		s.open[i] = false
	}
	s.nOpen = 0
	for _, i := range warm {
		if !s.open[i] {
			s.open[i] = true
			s.nOpen++
		}
	}
	s.rebuildOpenList()
	s.refreshBests(p)
	before := s.openSetCost(p)
	s.localSearch(p, true)
	if s.openSetCost(p) < before {
		s.WarmHits++
	}
	s.extractInto(p, kk, out)
}

// SolveQuick is a cheaper Solve for the solver's inner descent loop: both
// starts (cheapest-single and all-open) with add/drop moves, but no swap
// scan — the O(n²K) swap sweep at every local optimum dominated solver
// profiles. Block steps need a good direction, not a certified local
// optimum; the robust Solve is reserved for the rounding phase.
func (s *Solver) SolveQuick(p *Problem) Solution {
	var out Solution
	s.SolveQuickInto(p, &out, nil)
	return out
}

// SolveQuickInto is SolveQuick writing the result into out, reusing its
// backing arrays. When warm is non-empty it replaces the all-open second
// start with the given open set (ascending facility indices) — the epf
// descent passes the video's previous block solution, which is usually near
// the new optimum and seeds the local search much closer than the all-open
// drop start. An empty warm set keeps the two-start schedule.
func (s *Solver) SolveQuickInto(p *Problem, out *Solution, warm []int32) {
	n, kk := p.NumFacilities(), p.NumDemands()
	if n == 0 {
		panic("facloc: SolveQuick with no facilities")
	}
	s.reserve(p, n, kk)
	s.open[s.cheapestSingle(p, kk)] = true
	s.nOpen = 1
	s.rebuildOpenList()
	s.refreshBests(p)
	s.localSearch(p, false)
	cost1 := s.openSetCost(p)
	if cap(s.openScratch) < n {
		s.openScratch = make([]bool, n)
	}
	open1 := s.openScratch[:n]
	copy(open1, s.open)
	nOpen1 := s.nOpen

	for i := range s.open {
		s.open[i] = false
	}
	if len(warm) > 0 {
		s.WarmTries++
		s.nOpen = 0
		for _, i := range warm {
			if !s.open[i] {
				s.open[i] = true
				s.nOpen++
			}
		}
	} else {
		for i := range s.open {
			s.open[i] = true
		}
		s.nOpen = n
	}
	s.rebuildOpenList()
	s.refreshBests(p)
	s.localSearch(p, false)
	cost2 := s.openSetCost(p)
	if len(warm) > 0 && cost2 < cost1 {
		s.WarmHits++
	}
	if cost1 <= cost2 {
		copy(s.open, open1)
		s.nOpen = nOpen1
		s.rebuildOpenList()
		s.refreshBests(p)
	}
	s.extractInto(p, kk, out)
}

// extractInto fills out from the current open set, reusing out's backing
// arrays.
func (s *Solver) extractInto(p *Problem, kk int, out *Solution) {
	out.Open = out.Open[:0]
	if cap(out.Assign) < kk {
		out.Assign = make([]int, kk)
	}
	out.Assign = out.Assign[:kk]
	out.Open = append(out.Open, s.openList...)
	for k := 0; k < kk; k++ {
		if s.bestI[k] < 0 {
			panic(fmt.Sprintf("facloc: demand %d unassigned: nOpen=%d open=%v best1=%v row=%v", k, s.nOpen, out.Open, s.best1[k], p.Row(k)))
		}
		out.Assign[k] = s.bestI[k]
	}
	out.Cost = s.openSetCost(p)
}

// localSearch runs add/drop (and, when swaps is set, swap) moves on the
// current open set to a local optimum or a pass cap. Best trackers are
// maintained incrementally: opening costs O(K), closing O(K + affected·n).
//
// The add and swap gains are the hot loops of the whole solver (DESIGN.md
// §8); both are moveGain down a contiguous column of colT. The kernels may
// be rewritten only under the summation-order rule: each gain stays one
// left-to-right sum over k ascending from the same first operand (−F_i,
// F_i − F_i'); an operand may be read from elsewhere, a two-way select may
// become min/max or be hoisted out of a loop it does not depend on, and an
// exact +0 may be added where a term used to be skipped. Under that rule
// every gain, every first-improving move and so the whole trajectory are
// bit for bit those of the branchy row-major loops this replaced, which are
// kept in ref_test.go as the oracle (TestKernelsMatchReference).
func (s *Solver) localSearch(p *Problem, swaps bool) {
	n := p.NumFacilities()
	kk := len(s.best1)
	best1, alt0 := s.best1, s.alt0
	const maxPasses = 60
	for pass := 0; pass < maxPasses; pass++ {
		improved := false

		// Add moves: gain of opening i = Σ_k max(0, best1_k − g_ki) − F_i.
		// A demand's other option is its current best, so the term is
		// best1_k − min(best1_k, g_ki): the same subtraction when i is
		// cheaper, best1_k − best1_k = +0 where the sum used to skip.
		for i := 0; i < n; i++ {
			if s.open[i] {
				continue
			}
			if moveGain(-p.Open[i], best1, best1, s.colT[i*kk:]) > 1e-12 {
				s.openFacility(i)
				improved = true
			}
		}

		// Drop moves: gain of closing i = F_i − Σ_{k: served by i} (best2_k − g_ki).
		for i := 0; i < n; i++ {
			if !s.open[i] {
				continue
			}
			gain := p.Open[i]
			feasible := true
			for k := 0; k < kk; k++ {
				if s.bestI[k] == i {
					if math.IsInf(s.best2[k], 1) {
						feasible = false // only open facility for this demand
						break
					}
					gain -= s.best2[k] - s.best1[k]
				}
			}
			// Keep at least one facility open overall.
			if feasible && gain > 1e-12 && s.nOpen > 1 {
				s.closeFacility(p, i)
				improved = true
			}
		}

		// Swap moves: close i, open i'. Evaluated only when add/drop stall,
		// since each evaluation is O(K).
		if swaps && !improved {
			for i := 0; i < n && !improved; i++ {
				if !s.open[i] {
					continue
				}
				// Serving options after a swap: the newly opened ip, or the
				// cheapest open facility other than i — which does not depend
				// on ip, so it is selected once per i.
				for k := range alt0 {
					alt0[k] = best1[k]
					if s.bestI[k] == i {
						alt0[k] = s.best2[k]
					}
				}
				for ip := 0; ip < n && !improved; ip++ {
					if s.open[ip] {
						continue
					}
					if moveGain(p.Open[i]-p.Open[ip], best1, alt0, s.colT[ip*kk:]) > 1e-12 {
						s.closeFacility(p, i)
						s.openFacility(ip)
						improved = true
					}
				}
			}
		}
		if !improved {
			break
		}
	}
}

// moveGain returns gain + Σ_k (best1[k] − min(alt[k], col[k])), summed left to
// right over k ascending: what the demands save when the facility whose costs
// are col opens and each demand's other option costs alt[k]. Branch-free: the
// selects are data-dependent and unpredictable, and most terms are +0.
func moveGain(gain float64, best1, alt, col []float64) float64 {
	alt, col = alt[:len(best1)], col[:len(best1)]
	for k, b := range best1 {
		gain += b - min(alt[k], col[k])
	}
	return gain
}

// DualAscent computes a feasible solution (v, implicit w) of the UFL LP dual
//
//	max Σ_k v_k  s.t.  Σ_k max(0, v_k − g_ki) ≤ F_i  ∀i
//
// and returns its value, a valid lower bound on the UFL LP optimum (and
// hence on the integer optimum). The second return is the dual vector for
// diagnostics. With zero demand points the bound is min_i F_i, since every
// video must still be stored once.
//
// The ascent starts from v_k = min_i g_ki, where no facility contributes yet
// (max(0, v_k − g_ki) = 0 for every i, v_k being the row minimum), so every
// slack starts at its full opening cost F_i ≥ 0.
func (s *Solver) DualAscent(p *Problem) (float64, []float64) {
	n, kk := p.NumFacilities(), p.NumDemands()
	if kk == 0 {
		lb := math.Inf(1)
		for _, f := range p.Open {
			if f < lb {
				lb = f
			}
		}
		return lb, nil
	}
	if cap(s.v) < kk {
		s.v = make([]float64, kk)
	}
	s.v = s.v[:kk]
	if cap(s.slack) < n {
		s.slack = make([]float64, n)
	}
	s.slack = s.slack[:n]
	if cap(s.order) < kk {
		s.order = make([]int, kk)
	}
	s.order = s.order[:kk]

	copy(s.slack, p.Open)
	for k := 0; k < kk; k++ {
		m := math.Inf(1)
		for _, g := range p.Row(k) {
			if g < m {
				m = g
			}
		}
		s.v[k] = m
	}

	// Ascend demand duals in waves: raise each v_k to its next assignment
	// cost breakpoint or until a contributing facility's slack hits zero.
	for k := range s.order {
		s.order[k] = k
	}
	// Processing demands with the lowest initial dual first mimics the
	// classic ascent's uniform raise and converges in few waves; the order
	// is computed once — re-sorting each wave measurably dominated solver
	// profiles without improving the bound. A hand-rolled stable insertion
	// sort replaces sort.SliceStable: the K's here are small, the closure
	// and reflection overhead of the generic sort dominated this function's
	// profile, and a stable sort's output is unique, so the wave order (and
	// the solver trajectory built on it) is bit-identical.
	ord := s.order
	for a := 1; a < kk; a++ {
		x := ord[a]
		vx := s.v[x]
		b := a
		for ; b > 0 && s.v[ord[b-1]] > vx; b-- {
			ord[b] = ord[b-1]
		}
		ord[b] = x
	}
	// active is ord compacted in place as demands freeze: slacks never
	// increase and a frozen v_k never moves, so a demand whose allowed raise
	// once falls to zero can never progress in any later wave — dropping it
	// is exact, not an approximation, and later waves touch only the demands
	// still in play.
	if cap(s.contrib) < n {
		s.contrib = make([]int, n)
	}
	const maxWaves = 64
	active := ord
	for wave := 0; wave < maxWaves; wave++ {
		progressed := false
		na := 0
		for _, k := range active {
			row := p.Row(k)
			vk := s.v[k]
			// One fused sweep: the next assignment-cost breakpoint strictly
			// above v_k, and the minimum slack over contributing facilities
			// (g_ki <= v_k), recorded in ascending order so the raise below
			// touches only them. min() is order-free and the decrement order
			// is unchanged, so nothing differs numerically from the
			// historical full-row sweeps.
			next := math.Inf(1)
			minSlack := math.Inf(1)
			nc := 0
			for i, g := range row {
				if g > vk {
					if g < next {
						next = g
					}
				} else {
					if s.slack[i] < minSlack {
						minSlack = s.slack[i]
					}
					s.contrib[nc] = i
					nc++
				}
			}
			allowed := next - vk
			if minSlack < allowed {
				allowed = minSlack
			}
			if allowed <= 1e-15 || math.IsInf(allowed, 1) {
				continue // frozen for good; drops out of active
			}
			for _, i := range s.contrib[:nc] {
				s.slack[i] -= allowed
				if s.slack[i] < 0 {
					s.slack[i] = 0
				}
			}
			s.v[k] = vk + allowed
			progressed = true
			active[na] = k
			na++
		}
		active = active[:na]
		if !progressed {
			break
		}
	}
	var lb float64
	for _, vk := range s.v {
		lb += vk
	}
	return lb, s.v
}

// BruteForce exhaustively enumerates facility subsets and returns the true
// integer optimum. It is exponential in the facility count and exists for
// test cross-validation only (n ≤ ~15).
func BruteForce(p *Problem) Solution {
	n, kk := p.NumFacilities(), p.NumDemands()
	if n > 20 {
		panic("facloc: BruteForce on too many facilities")
	}
	best := Solution{Cost: math.Inf(1)}
	for mask := 1; mask < 1<<n; mask++ {
		var cost float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				cost += p.Open[i]
			}
		}
		assign := make([]int, kk)
		for k := 0; k < kk; k++ {
			row := p.Row(k)
			bi, bg := -1, math.Inf(1)
			for i, g := range row {
				if mask&(1<<i) != 0 && g < bg {
					bi, bg = i, g
				}
			}
			assign[k] = bi
			cost += bg
		}
		if cost < best.Cost {
			var open []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					open = append(open, i)
				}
			}
			best = Solution{Open: open, Assign: assign, Cost: cost}
		}
	}
	return best
}
