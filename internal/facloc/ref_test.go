package facloc

// The parent commit's local search, kept verbatim as the oracle the
// facility-major, branch-free kernels in facloc.go are proven against:
// localSearch and openFacility walk p.Assign down its stride-n columns with
// the original data-dependent branches, and the three drivers are the
// parent's drivers calling them. Everything else (reserve, rescanDemand,
// closeFacility, cheapestSingle, extractInto, openSetCost) is shared with
// Solver through the embedding — those read rows and did not change.
//
// The only edits are the receiver type and reserve's new signature.
//
// refDualAscent is, in the same way, the DualAscent the ordered walk
// replaced: the fused full-row scan, which finds the contributors, the next
// breakpoint and the tightest slack in one sweep over every office on every
// raise. It keeps its own wave order and contributor scratch; its one added
// statement counts the slack-limited raises (slackLimited), after which the
// ordered walk drops the demand at once.

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

type refSolver struct {
	Solver
	order, contrib []int
	slackLimited   int
}

// openFacility opens i and updates the best trackers incrementally (O(K)).
func (s *refSolver) openFacility(p *Problem, i int) {
	s.open[i] = true
	s.nOpen++
	lst := append(s.openList, i)
	for a := len(lst) - 1; a > 0 && lst[a-1] > i; a-- {
		lst[a], lst[a-1] = lst[a-1], i
	}
	s.openList = lst
	n := len(p.Open)
	for k := range s.best1 {
		g := p.Assign[k*n+i]
		if g < s.best1[k] {
			s.best2[k], s.bestI2[k] = s.best1[k], s.bestI[k]
			s.best1[k], s.bestI[k] = g, i
		} else if g < s.best2[k] {
			s.best2[k], s.bestI2[k] = g, i
		}
	}
}

// localSearch runs add/drop (and, when swaps is set, swap) moves on the
// current open set to a local optimum or a pass cap. Best trackers are
// maintained incrementally: opening costs O(K), closing O(K + affected·n).
func (s *refSolver) localSearch(p *Problem, swaps bool) {
	n := p.NumFacilities()
	kk := len(s.best1)
	const maxPasses = 60
	for pass := 0; pass < maxPasses; pass++ {
		improved := false

		// Add moves: gain of opening i = Σ_k max(0, best1_k − g_ki) − F_i.
		for i := 0; i < n; i++ {
			if s.open[i] {
				continue
			}
			gain := -p.Open[i]
			for k := 0; k < kk; k++ {
				if d := s.best1[k] - p.Assign[k*n+i]; d > 0 {
					gain += d
				}
			}
			if gain > 1e-12 {
				s.openFacility(p, i)
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
				for ip := 0; ip < n && !improved; ip++ {
					if s.open[ip] || ip == i {
						continue
					}
					gain := p.Open[i] - p.Open[ip]
					for k := 0; k < kk; k++ {
						cur := s.best1[k]
						// Serving options after the swap: cheapest open
						// facility other than i, or the newly opened ip.
						alt := p.Assign[k*n+ip]
						if s.bestI[k] != i {
							if cur < alt {
								alt = cur
							}
						} else if s.best2[k] < alt {
							alt = s.best2[k]
						}
						gain += cur - alt
					}
					if gain > 1e-12 {
						s.closeFacility(p, i)
						s.openFacility(p, ip)
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

func (s *refSolver) SolveInto(p *Problem, out *Solution) {
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

func (s *refSolver) SolveWarmInto(p *Problem, out *Solution, warm []int32) {
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

func (s *refSolver) SolveQuickInto(p *Problem, out *Solution, warm []int32) {
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

func refDualAscent(s *refSolver, p *Problem) (float64, []float64) {
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
			if allowed == minSlack {
				s.slackLimited++
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

// kernelProblem draws an n×k problem. Flavours 0–4 choose costs to stress
// the kernels' selects rather than to look like a placement block: flavour
// 0 is plain uniform costs; 1 quantises everything to {0,1,2,3} so gains
// tie exactly and best1 == g is common; 2 has free facilities; 3 scales
// every cost to 1e120 (the size clampDual lets a dual reach); 4 mixes
// 1e120-scale and unit-scale entries so small terms are absorbed and sums
// tie. Flavour placementFlavour is shaped like a placement block instead
// (see placementProblem).
func kernelProblem(rng *rand.Rand, n, k, flavour int) *Problem {
	if flavour == placementFlavour {
		return placementProblem(rng, n, k)
	}
	p := &Problem{Open: make([]float64, n), Assign: make([]float64, k*n)}
	draw := func() float64 {
		switch flavour {
		case 1:
			return float64(rng.Intn(4))
		case 3:
			return rng.Float64() * 1e120
		case 4:
			if rng.Intn(3) == 0 {
				return float64(rng.Intn(3)) * 1e120
			}
			return float64(rng.Intn(4))
		}
		return rng.Float64() * 10
	}
	for i := range p.Open {
		if flavour != 2 {
			p.Open[i] = draw()
		}
	}
	for idx := range p.Assign {
		p.Assign[idx] = draw()
	}
	return p
}

const placementFlavour = 5

// placementProblem draws an n×k problem shaped like a placement block: each
// row is its demand's coefficient times a hop level 0..5, so costs tie
// exactly; a quarter of the entries carry a ~1e-30 path-dual term, which
// survives only on a hop-0 entry (elsewhere it is absorbed); open costs of
// 4–10 sit far above the row spread (at most 0.6); and up to three offices
// are cheap (free, or under half a row spread). Without a cheap office the
// all-open drop pass closes every office but the last; a cheap one usually
// stops it there. Order is each row's hop-level order, levels ascending and
// ties by index, as mip.Instance.HopOrder gives a placement block: a hop-0
// entry whose path-dual term survives sits out of order ahead of a later
// plain hop-0 entry, so most rows need DualAscent's repair.
func placementProblem(rng *rand.Rand, n, k int) *Problem {
	p := &Problem{Open: make([]float64, n), Assign: make([]float64, k*n), Order: make([]int32, k*n)}
	for i := range p.Open {
		p.Open[i] = 4 + 6*rng.Float64()
	}
	for range rng.Intn(4) {
		i := rng.Intn(n)
		p.Open[i] = 0
		if rng.Intn(2) == 0 {
			p.Open[i] = 0.3 * rng.Float64()
		}
	}
	level := make([]int, n)
	for kd := 0; kd < k; kd++ {
		coef := 0.02 + 0.1*rng.Float64()
		for i, row := 0, p.Row(kd); i < n; i++ {
			level[i] = rng.Intn(6)
			row[i] = coef * float64(level[i])
			if rng.Intn(4) == 0 {
				row[i] += 1e-30 * rng.Float64()
			}
		}
		o := p.Order[kd*n : kd*n+n]
		for i := range o {
			o[i] = int32(i)
		}
		slices.SortStableFunc(o, func(a, b int32) int { return level[a] - level[b] })
	}
	return p
}

// localProblem is placementProblem with one hop-0 office per demand, its
// own, as the traffic's blocks have: open costs are disk prices (small, some
// near zero) and each row climbs in hop levels from the demand's office. On
// these blocks the ascent's bound is not zero and the dual adjustment finds
// moves, which placementProblem's rows (several hop-0 offices each) rarely
// leave it.
func localProblem(rng *rand.Rand, n, k int) *Problem {
	p := &Problem{Open: make([]float64, n), Assign: make([]float64, k*n), Order: make([]int32, k*n)}
	for i := range p.Open {
		p.Open[i] = 0.05 + 0.3*rng.Float64()
	}
	level := make([]int, n)
	for kd := 0; kd < k; kd++ {
		coef, j := 0.02+0.1*rng.Float64(), rng.Intn(n)
		for i, row := 0, p.Row(kd); i < n; i++ {
			level[i] = 1 + rng.Intn(5)
			if i == j {
				level[i] = 0
			}
			row[i] = coef * (0.1 + float64(level[i]))
		}
		o := p.Order[kd*n : kd*n+n]
		for i := range o {
			o[i] = int32(i)
		}
		slices.SortStableFunc(o, func(a, b int32) int { return level[a] - level[b] })
	}
	return p
}

// allOpenKept returns the first office the all-open start's first drop
// pass keeps, from the pass's definition rather than the solver's sweep:
// office i comes up with {i..n−1} open, serves demand k when no later
// office is cheaper, and closes when i < n−1 and
// F_i − Σ_{k served by i} (second_k − g_ki) > 1e-12.
func allOpenKept(p *Problem) int {
	n := p.NumFacilities()
	for i := 0; i < n-1; i++ {
		gain := p.Open[i]
		for k := 0; k < p.NumDemands(); k++ {
			row := p.Row(k)
			if second := slices.Min(row[i+1:]); row[i] <= second {
				gain -= second - row[i]
			}
		}
		if !(gain > 1e-12) {
			return i
		}
	}
	return n - 1
}

// checkKernels runs every local-search entry point on p through both solvers
// and requires the same open set, the same assignment and the same cost
// bits, and the same warm counters afterwards.
func checkKernels(t testing.TB, s *Solver, ref *refSolver, p *Problem, warm []int32) {
	t.Helper()
	var got, want Solution
	same := func(name string) {
		t.Helper()
		if !slices.Equal(got.Open, want.Open) || !slices.Equal(got.Assign, want.Assign) ||
			math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("%s on %d×%d (warm %v): got open %v assign %v cost %x, reference open %v assign %v cost %x\nproblem %+v",
				name, p.NumFacilities(), p.NumDemands(), warm, got.Open, got.Assign, math.Float64bits(got.Cost),
				want.Open, want.Assign, math.Float64bits(want.Cost), *p)
		}
	}
	s.SolveInto(p, &got)
	ref.SolveInto(p, &want)
	same("Solve")
	s.SolveQuickInto(p, &got, nil)
	ref.SolveQuickInto(p, &want, nil)
	same("SolveQuick cold")
	s.SolveQuickInto(p, &got, warm)
	ref.SolveQuickInto(p, &want, warm)
	same("SolveQuick warm")
	s.SolveWarmInto(p, &got, warm)
	ref.SolveWarmInto(p, &want, warm)
	same("SolveWarm")
	if s.WarmTries != ref.WarmTries || s.WarmHits != ref.WarmHits {
		t.Fatalf("warm counters %d/%d, reference %d/%d", s.WarmHits, s.WarmTries, ref.WarmHits, ref.WarmTries)
	}
}

// warmSet draws an ascending warm open set with repeats.
func warmSet(rng *rand.Rand, n int) []int32 {
	warm := make([]int32, 1+rng.Intn(5))
	for a := range warm {
		warm[a] = int32(rng.Intn(n))
	}
	slices.Sort(warm)
	return warm
}

// One Solver pair is reused across every shape, in an order that both
// shrinks and grows n and K from one problem to the next, so a column read
// from a previous problem's colT (stale or out of range) shows up as a
// mismatch or a panic.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var s Solver
	var ref refSolver
	var shapes [][2]int
	for _, n := range []int{55, 1, 9, 2} {
		for _, k := range []int{8, 55, 0, 1} {
			shapes = append(shapes, [2]int{n, k})
		}
	}
	const rounds = 156 // × 16 shapes = 2496 problems, × 4 entry points
	for round := 0; round < rounds; round++ {
		for _, sh := range shapes {
			p := kernelProblem(rng, sh[0], sh[1], round%(placementFlavour+1))
			checkKernels(t, &s, &ref, p, warmSet(rng, sh[0]))
		}
	}
	if s.WarmTries != 2*rounds*int64(len(shapes)) || s.WarmHits == 0 || s.WarmHits == s.WarmTries {
		t.Errorf("warm counters %d/%d: want %d tries and a proper subset of hits", s.WarmHits, s.WarmTries, 2*rounds*len(shapes))
	}
}

// The all-open start computes its first drop pass instead of running it and
// resumes at the first office the pass keeps, i*. Flavours 0–4 put open and
// assignment costs on one scale, so that pass rarely gets far; this test
// holds the placement flavour to covering all three ways the shortcut can
// end (i* = 0, mid-range, n−1) many times over, on one Solver reused across
// shapes, each problem checked against the reference.
func TestAllOpenShortcutCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var s Solver
	var ref refSolver
	var first, mid, last int
	for round := 0; round < 40; round++ {
		for _, n := range []int{55, 23, 9, 2} {
			for _, k := range []int{8, 14, 1, 0} {
				p := kernelProblem(rng, n, k, placementFlavour)
				switch kept := allOpenKept(p); {
				case kept == 0:
					first++
				case kept == n-1:
					last++
				default:
					mid++
				}
				checkKernels(t, &s, &ref, p, warmSet(rng, n))
				checkAllOpen(t, &s, &ref, p)
			}
		}
	}
	if first < 50 || mid < 50 || last < 50 {
		t.Errorf("i* = 0 on %d problems, mid-range on %d, n−1 on %d: want at least 50 each", first, mid, last)
	}
	t.Logf("i* = 0 on %d problems, mid-range on %d, n−1 on %d", first, mid, last)
}

// checkAllOpen runs the all-open start alone through both solvers, with and
// without swaps, and requires the same open set and the same trackers bit
// for bit afterwards. The entry points keep the better of two starts, which
// can hide a wrong all-open start behind a good first one. The Solver starts
// from a stale open set, as start 2 follows start 1.
func checkAllOpen(t testing.TB, s *Solver, ref *refSolver, p *Problem) {
	t.Helper()
	n, kk := p.NumFacilities(), p.NumDemands()
	bits := func(x []float64) []uint64 {
		b := make([]uint64, len(x))
		for a, v := range x {
			b[a] = math.Float64bits(v)
		}
		return b
	}
	for _, swaps := range []bool{false, true} {
		s.reserve(p, n, kk)
		for i := range s.open {
			s.open[i] = i%2 == 0
		}
		s.searchFromAllOpen(p, swaps)
		ref.reserve(p, n, kk)
		for i := range ref.open {
			ref.open[i] = true
		}
		ref.nOpen = n
		ref.rebuildOpenList()
		ref.refreshBests(p)
		ref.localSearch(p, swaps)
		if s.nOpen != ref.nOpen || !slices.Equal(s.openList, ref.openList) || !slices.Equal(s.open, ref.open) ||
			!slices.Equal(s.bestI, ref.bestI) || !slices.Equal(s.bestI2, ref.bestI2) ||
			!slices.Equal(bits(s.best1), bits(ref.best1)) || !slices.Equal(bits(s.best2), bits(ref.best2)) {
			t.Fatalf("all-open start (swaps %v) on %d×%d: open %v bestI %v bestI2 %v, reference open %v bestI %v bestI2 %v\nproblem %+v",
				swaps, n, kk, s.openList, s.bestI, s.bestI2, ref.openList, ref.bestI, ref.bestI2, *p)
		}
	}
}

// placementSeed is a FuzzFaclocKernels input shaped like a placement block
// on the fuzzer's 16-level grid: open costs 12–15 above assignment costs
// 0–3, with office cheap free.
func placementSeed(n, k, cheap int) []byte {
	rng := rand.New(rand.NewSource(int64(n*k + cheap)))
	data := make([]byte, n+n*k)
	for i := range data {
		data[i] = byte(rng.Intn(4))
		if i < n {
			data[i] += 12
		}
	}
	data[cheap] = 0
	return data
}

// hopOrderSeed is a FuzzFaclocKernels input shaped like a placement block
// with its hop order: open costs 12–15, assignment cost 2·h at hop level h
// 0..3, plus 3 on a quarter of the entries (a path-dual term, which lifts
// the entry past the next level and breaks the hop order), and order bytes
// that are the levels themselves.
func hopOrderSeed(n, k int) (data, ord []byte) {
	rng := rand.New(rand.NewSource(int64(n * k)))
	data = make([]byte, n+n*k)
	ord = make([]byte, n*k)
	for i := 0; i < n; i++ {
		data[i] = byte(12 + rng.Intn(4))
	}
	for idx := range ord {
		ord[idx] = byte(rng.Intn(4))
		data[n+idx] = 2 * ord[idx]
		if rng.Intn(4) == 0 {
			data[n+idx] += 3
		}
	}
	return data, ord
}

// fuzzOrder derives a K×n Order from ord: row k lists the offices stably
// sorted by the key ord[(k·n+i) mod len(ord)]. Empty ord gives no Order.
func fuzzOrder(n, k int, ord []byte) []int32 {
	if len(ord) == 0 {
		return nil
	}
	out := make([]int32, k*n)
	for kd := 0; kd < k; kd++ {
		o := out[kd*n : kd*n+n]
		for i := range o {
			o[i] = int32(i)
		}
		key := func(i int32) int { return int(ord[(kd*n+int(i))%len(ord)]) }
		slices.SortStableFunc(o, func(a, b int32) int { return key(a) - key(b) })
	}
	return out
}

// FuzzFaclocKernels is TestKernelsMatchReference and
// TestDualAscentMatchesReference with the fuzzer choosing the shape, the
// costs and the order: each data byte is one cost on a 16-level grid
// (cycled when data is short), so mutations steer ties directly, and ord
// keys each row's Order (fuzzOrder).
func FuzzFaclocKernels(f *testing.F) {
	f.Add(uint8(9), uint8(8), uint8(0), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, []byte{})
	f.Add(uint8(55), uint8(8), uint8(1), []byte{0, 0, 7, 7}, []byte{1, 0})
	f.Add(uint8(2), uint8(55), uint8(2), []byte{}, []byte{})
	f.Add(uint8(55), uint8(8), uint8(1), placementSeed(55, 8, 30), []byte{5, 4, 3, 2, 1, 0})
	f.Add(uint8(23), uint8(14), uint8(0), placementSeed(23, 14, 9), []byte{})
	data, ord := hopOrderSeed(55, 8)
	f.Add(uint8(55), uint8(8), uint8(0), data, ord)
	f.Fuzz(func(t *testing.T, nB, kB, scale uint8, data, ord []byte) {
		n, k := 1+int(nB)%55, int(kB)%56
		unit := []float64{1, 0.1, 1e119}[scale%3]
		p := &Problem{Open: make([]float64, n), Assign: make([]float64, k*n), Order: fuzzOrder(n, k, ord)}
		at := 0
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[at%len(data)]
			at++
			return float64(b%16) * unit
		}
		for i := range p.Open {
			p.Open[i] = next()
		}
		for idx := range p.Assign {
			p.Assign[idx] = next()
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		warm := []int32{int32(int(kB) % n), int32(int(scale) % n)}
		slices.Sort(warm)
		var s Solver
		var ref refSolver
		checkKernels(t, &s, &ref, p, warm)
		checkDualAscent(t, &s, &ref, p)
	})
}

// checkDualAscent runs DualAscent on p through the Solver and the fused scan
// it replaced and requires the same bound bits and the same bits of every
// v_k.
func checkDualAscent(t testing.TB, s *Solver, ref *refSolver, p *Problem) {
	t.Helper()
	lb, v := s.DualAscent(p)
	rlb, rv := refDualAscent(ref, p)
	same := math.Float64bits(lb) == math.Float64bits(rlb) && len(v) == len(rv)
	for k := range v {
		same = same && math.Float64bits(v[k]) == math.Float64bits(rv[k])
	}
	if !same {
		t.Fatalf("DualAscent on %d×%d: bound %v v %v, reference bound %v v %v\nproblem %+v",
			p.NumFacilities(), p.NumDemands(), lb, v, rlb, rv, *p)
	}
}

// sortedOrder is the stable argsort of each of p's rows: the order a hop
// table gives a row that carries no dual terms.
func sortedOrder(p *Problem) []int32 {
	n := p.NumFacilities()
	out := make([]int32, len(p.Assign))
	for k := 0; k < p.NumDemands(); k++ {
		o, row := out[k*n:k*n+n], p.Row(k)
		for i := range o {
			o[i] = int32(i)
		}
		slices.SortStableFunc(o, func(a, b int32) int { return cmp.Compare(row[a], row[b]) })
	}
	return out
}

// The ordered walk against the fused scan it replaced, on every
// kernelProblem flavour under five orders: the hop-level order (the
// placement flavour's own, a sorted order for the others), index order,
// reversed, a random permutation per row, and the sorted order with one
// adjacent pair swapped per row. One Solver pair is reused across shapes
// that shrink and grow. The test requires that both of the walk's own
// paths run often: rows whose order does not sort them (the repair), and
// slack-limited raises (after which the walk drops the demand at once).
func TestDualAscentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var s Solver
	var ref refSolver
	orders := []struct {
		name string
		make func(p *Problem) []int32
	}{
		{"hop", func(p *Problem) []int32 {
			if p.Order != nil {
				return p.Order
			}
			return sortedOrder(p)
		}},
		{"index", func(*Problem) []int32 { return nil }},
		{"reversed", func(p *Problem) []int32 {
			n, out := p.NumFacilities(), make([]int32, len(p.Assign))
			for idx := range out {
				out[idx] = int32(n - 1 - idx%n)
			}
			return out
		}},
		{"random", func(p *Problem) []int32 {
			n, out := p.NumFacilities(), make([]int32, 0, len(p.Assign))
			for range p.NumDemands() {
				for _, i := range rng.Perm(n) {
					out = append(out, int32(i))
				}
			}
			return out
		}},
		{"swapped", func(p *Problem) []int32 {
			n, out := p.NumFacilities(), sortedOrder(p)
			for k := 0; k < p.NumDemands() && n > 1; k++ {
				a := k*n + rng.Intn(n-1)
				out[a], out[a+1] = out[a+1], out[a]
			}
			return out
		}},
	}
	repaired := 0
	for round := 0; round < 30; round++ {
		for _, n := range []int{55, 1, 9, 2} {
			for _, k := range []int{8, 55, 0, 1} {
				p := kernelProblem(rng, n, k, round%(placementFlavour+1))
				for _, o := range orders {
					p.Order = o.make(p)
					if err := p.Validate(); err != nil {
						t.Fatalf("%s order: %v", o.name, err)
					}
					for kd := 0; kd < k; kd++ {
						ord := p.Order
						if ord == nil {
							ord = sortedIota(n)
						} else {
							ord = ord[kd*n : kd*n+n]
						}
						if !slices.IsSortedFunc(ord, func(a, b int32) int { return cmp.Compare(p.Row(kd)[a], p.Row(kd)[b]) }) {
							repaired++
						}
					}
					checkDualAscent(t, &s, &ref, p)
				}
			}
		}
	}
	if repaired < 50 || ref.slackLimited < 50 {
		t.Errorf("%d rows repaired, %d demands left early: want at least 50 each", repaired, ref.slackLimited)
	}
	t.Logf("%d rows repaired, %d demands left early", repaired, ref.slackLimited)
}

// sortedIota returns 0..n−1, the walk's order for a problem without Order.
func sortedIota(n int) []int32 {
	o := make([]int32, n)
	for i := range o {
		o[i] = int32(i)
	}
	return o
}
