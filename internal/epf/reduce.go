package epf

import "time"

// Deterministic parallel reductions (DESIGN.md §13).
//
// The driver-side reductions over per-block results — activity/objective
// rebuilds in recomputeState, the Lagrangian term sum and subgradient in
// lagrangianEval — run through a fixed two-level tree: the catalog is cut into
// leaves of reduceLeafBlocks consecutive videos, each leaf reduces its own
// videos in video order (fanned out across the pool into index-addressed leaf
// slots), and the driver merges the leaf partials in leaf order.
//
// The leaf boundaries are a function of the catalog size alone — never of
// the worker count or the chunk schedule — so the floating-point summation
// tree is the same at every worker count. A catalog that fits in one leaf is
// the flat sequential sum in video order, bit for bit: its one partial starts
// from +0 as the flat sum did, and merging it adds it to +0. That is what lets
// the tree coexist with the bitwise invariance contract and the pinned
// goldens.

// reduceLeafBlocks is the fixed leaf width of the deterministic reduction
// tree. It is a variable only so tests can force the multi-leaf machinery
// onto small instances; production solves always see the constant default.
var reduceLeafBlocks = 2048

// initReduce resolves the solve's reduction layout: the per-leaf partial
// buffers, the leaf bodies and the Run body that maps leaf indices to their
// video spans. Runs once in newSolver, before the initial recomputeState.
func (s *solver) initReduce() {
	numBlocks, width := len(s.inst.Demands), reduceLeafBlocks
	nl := (numBlocks + width - 1) / width
	s.leafAct = make([]float64, nl*s.rows)
	s.leafObj = make([]float64, nl)
	s.leafSum = make([]float64, nl)
	s.leafRun = func(_, lo, hi int) {
		for li := lo; li < hi; li++ {
			vlo := li * width
			s.leafFn(li, vlo, min(vlo+width, numBlocks))
		}
	}
	s.stateLeafFn = func(li, lo, hi int) {
		dst := s.leafAct[li*s.rows : (li+1)*s.rows]
		for r := range dst {
			dst[r] = 0
		}
		var obj float64
		for vi := lo; vi < hi; vi++ {
			s.blockRows(vi, &s.sol[vi], +1, dst, nil)
			obj += s.blockCost(vi, &s.sol[vi])
		}
		s.leafObj[li] = obj
	}
	s.lbSumLeafFn = func(li, lo, hi int) {
		var sum float64
		for vi := lo; vi < hi; vi++ {
			sum += s.lbBuf[vi]
		}
		s.leafSum[li] = sum
	}
	s.gradLeafFn = func(li, lo, hi int) {
		dst := s.leafGrad[li*s.rows : (li+1)*s.rows]
		for r := range dst {
			dst[r] = 0
		}
		for vi := lo; vi < hi; vi++ {
			s.intRows(vi, &s.lbSols[vi], dst, nil)
		}
	}
}

// runLeaves runs fn(li, lo, hi) for every leaf li and its video span [lo, hi):
// a Run over leaf indices, or on the driver when the dispatch is refused
// (context already cancelled), so the partials the caller merges are never
// stale.
func (s *solver) runLeaves(fn func(li, lo, hi int)) {
	s.leafFn = fn
	if err := s.pool.Run(s.ctx, len(s.leafObj), s.leafRun); err != nil {
		s.leafRun(0, 0, len(s.leafObj))
	}
}

// mergeLeafRows sums the per-leaf row partials in leaf (numLeaves×rows flat)
// into dst, in leaf order.
func (s *solver) mergeLeafRows(dst, leaf []float64) {
	nl, rows := len(s.leafObj), s.rows
	for r := 0; r < rows; r++ {
		var a float64
		for li := 0; li < nl; li++ {
			a += leaf[li*rows+r]
		}
		dst[r] = a
	}
}

// recomputeState rebuilds act and obj from the current solution.
func (s *solver) recomputeState() {
	start := time.Now()
	s.runLeaves(s.stateLeafFn)
	s.mergeLeafRows(s.act, s.leafAct)
	var obj float64
	for _, o := range s.leafObj {
		obj += o
	}
	s.obj = obj
	s.stats.ReduceTime += time.Since(start)
}

// reduceLBSum reduces the per-block dual-ascent bounds in s.lbBuf to their
// total.
func (s *solver) reduceLBSum() float64 {
	start := time.Now()
	s.runLeaves(s.lbSumLeafFn)
	var lr float64
	for _, sum := range s.leafSum {
		lr += sum
	}
	s.stats.ReduceTime += time.Since(start)
	return lr
}

// reduceGrad accumulates the subgradient A·z_q of the current per-block
// minimizers (s.lbSols) into grad, overwriting it. The per-leaf gradient
// buffer is lazy — subgradients are only requested during dual polish.
func (s *solver) reduceGrad(grad []float64) {
	start := time.Now()
	if s.leafGrad == nil {
		s.leafGrad = make([]float64, len(s.leafAct))
	}
	s.runLeaves(s.gradLeafFn)
	s.mergeLeafRows(grad, s.leafGrad)
	s.stats.ReduceTime += time.Since(start)
}
