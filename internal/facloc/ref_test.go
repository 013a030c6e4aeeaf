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

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

type refSolver struct{ Solver }

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

// kernelProblem draws an n×k problem whose costs are chosen to stress the
// kernels' selects rather than to look like a placement block: flavour 0 is
// plain uniform costs; 1 quantises everything to {0,1,2,3} so gains tie
// exactly and best1 == g is common; 2 has free facilities; 3 scales every
// cost to 1e120 (the size clampDual lets a dual reach); 4 mixes 1e120-scale
// and unit-scale entries so small terms are absorbed and sums tie.
func kernelProblem(rng *rand.Rand, n, k, flavour int) *Problem {
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
	const rounds = 130 // × 16 shapes = 2080 problems, × 4 entry points
	for round := 0; round < rounds; round++ {
		for _, sh := range shapes {
			p := kernelProblem(rng, sh[0], sh[1], round%5)
			checkKernels(t, &s, &ref, p, warmSet(rng, sh[0]))
		}
	}
	if s.WarmTries != 2*rounds*int64(len(shapes)) || s.WarmHits == 0 || s.WarmHits == s.WarmTries {
		t.Errorf("warm counters %d/%d: want %d tries and a proper subset of hits", s.WarmHits, s.WarmTries, 2*rounds*len(shapes))
	}
}

// FuzzFaclocKernels is TestKernelsMatchReference with the fuzzer choosing
// the shape and the costs: each data byte is one cost on a 16-level grid
// (cycled when data is short), so mutations steer ties directly.
func FuzzFaclocKernels(f *testing.F) {
	f.Add(uint8(9), uint8(8), uint8(0), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	f.Add(uint8(55), uint8(8), uint8(1), []byte{0, 0, 7, 7})
	f.Add(uint8(2), uint8(55), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, nB, kB, scale uint8, data []byte) {
		n, k := 1+int(nB)%55, int(kB)%56
		unit := []float64{1, 0.1, 1e119}[scale%3]
		p := &Problem{Open: make([]float64, n), Assign: make([]float64, k*n)}
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
		warm := []int32{int32(int(kB) % n), int32(int(scale) % n)}
		slices.Sort(warm)
		var s Solver
		var ref refSolver
		checkKernels(t, &s, &ref, p, warm)
	})
}
