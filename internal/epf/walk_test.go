package epf

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vodplace/internal/mip"
)

// walkInstance is randomProblem's instance (8 offices, 60 videos) with |T| =
// numSlices: slice 0 keeps randomProblem's concurrency, each later slice
// carries every other demand office at a fraction of it, so the sparse
// concurrency lists differ from slice to slice.
func walkInstance(t *testing.T, seed int64, numSlices int) *mip.Instance {
	t.Helper()
	g, disk, caps, demands := randomProblem(t, seed, 8, 60, 2.0, 100)
	for v := range demands {
		d := &demands[v]
		base := d.Conc[0]
		d.Conc = make([][]float64, numSlices)
		for ts := range d.Conc {
			row := make([]float64, len(base))
			for k := range row {
				if ts == 0 || (k+ts)%2 == 0 {
					row[k] = base[k] / float64(1+ts)
				}
			}
			d.Conc[ts] = row
		}
	}
	inst, err := mip.NewInstance(g, disk, caps, numSlices, demands)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// sameRow compares two row values: bit for bit when exact, else within tol
// relative to scale.
func sameRow(got, want float64, exact bool, scale float64) bool {
	if exact {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return got == want || math.Abs(got-want) <= 1e-12*scale
}

// usageRows is the reference row usage of a solution: mip.Solution's disk
// and link usage, laid out in the solver's row order.
func usageRows(s *solver, sol *mip.Solution) []float64 {
	rows := make([]float64, s.rows)
	for i, u := range sol.DiskUsage() {
		rows[s.rowDisk(i)] = u
	}
	for ts, link := range sol.LinkUsage() {
		for l, u := range link {
			rows[s.rowLink(l, ts)] = u
		}
	}
	return rows
}

// blockUsage is the reference row usage of block bs of video vi alone.
func blockUsage(s *solver, vi int, bs *mip.VideoPlacement) []float64 {
	sol := mip.NewSolution(s.inst)
	sol.Videos[vi] = *bs
	return usageRows(s, sol)
}

// intBlock is the integer block solution ns as a placement, in the layout
// setIntBlock writes.
func intBlock(ns *intSol) *mip.VideoPlacement {
	bs := &mip.VideoPlacement{Assign: make([][]mip.Frac, len(ns.assign))}
	for _, i := range ns.open {
		bs.Open = append(bs.Open, mip.Frac{I: i, V: 1})
	}
	for k, i := range ns.assign {
		bs.Assign[k] = []mip.Frac{{I: i, V: 1}}
	}
	return bs
}

// checkStateRows rebuilds the solver's activities and objective from its
// blocks and compares them with mip.Solution's own sums: bit for bit when
// exact (a single-leaf catalog adds the same terms in the same order),
// within 1e-12 relative otherwise.
func checkStateRows(t *testing.T, s *solver, exact bool, what string) {
	t.Helper()
	s.recomputeState()
	sol := &mip.Solution{Inst: s.inst, Videos: s.sol}
	want := usageRows(s, sol)
	for r := range want {
		if !sameRow(s.act[r], want[r], exact, math.Abs(want[r])) {
			t.Fatalf("%s: row %d activity %v, reference %v (exact %v)", what, r, s.act[r], want[r], exact)
		}
	}
	if obj := sol.Objective(); !sameRow(s.obj, obj, false, math.Abs(obj)) {
		t.Fatalf("%s: objective %v, reference %v", what, s.obj, obj)
	}
}

// checkBlockWalks checks the sparse walks of video vi's block against dense
// ones and against mip.Solution's usage of the block alone:
//
//   - the line-search delta (blockDelta) equals a dense walk of the old block
//     out and ns in, bit for bit, every nonzero row is listed, and it is
//     within 1e-12 of the reference new − old usage;
//   - each side of the rounding step (stepSides) equals a dense walk of that
//     side and the reference usage bit for bit, and the listed rows are
//     exactly the union of both sides' nonzero rows, ascending;
//   - the candidate's cost (addIntCost) is the bits blockCost gives its
//     placement.
//
// Every scratch accumulator is left zeroed, as the solver expects.
func checkBlockWalks(t *testing.T, s *solver, vi int, ns *intSol) {
	t.Helper()
	old := &s.sol[vi]
	refOld, refNew := blockUsage(s, vi, old), blockUsage(s, vi, intBlock(ns))

	dense := make([]float64, s.rows)
	s.blockRows(vi, old, -1, dense, nil)
	s.intRows(vi, ns, dense, nil)
	s.blockDelta(vi, ns)
	listed := make([]bool, s.rows)
	for _, r := range s.touched {
		listed[r] = true
	}
	for r := range dense {
		switch {
		case !sameRow(s.acc[r], dense[r], true, 0):
			t.Fatalf("video %d: delta row %d is %v, dense walk %v", vi, r, s.acc[r], dense[r])
		case dense[r] != 0 && !listed[r]:
			t.Fatalf("video %d: delta row %d (%v) is not listed", vi, r, dense[r])
		case !sameRow(dense[r], refNew[r]-refOld[r], false, refNew[r]+refOld[r]):
			t.Fatalf("video %d: delta row %d is %v, reference %v", vi, r, dense[r], refNew[r]-refOld[r])
		}
	}
	for _, r := range s.touched {
		s.acc[r] = 0
	}
	s.touched = s.touched[:0]

	cur, cand := make([]float64, s.rows), make([]float64, s.rows)
	s.blockRows(vi, old, +1, cur, nil)
	s.intRows(vi, ns, cand, nil)
	s.stepSides(vi, old, ns)
	var union []int32
	for r := range cur {
		for side, want := range [][]float64{cur, cand} {
			ref := [][]float64{refOld, refNew}[side]
			if !sameRow(s.stepUse[side][r], want[r], true, 0) || !sameRow(want[r], ref[r], true, 0) {
				t.Fatalf("video %d: step side %d row %d is %v, dense walk %v, reference %v",
					vi, side, r, s.stepUse[side][r], want[r], ref[r])
			}
		}
		if cur[r] != 0 || cand[r] != 0 {
			union = append(union, int32(r))
		}
	}
	if !slices.Equal(s.stepRows, union) {
		t.Fatalf("video %d: step rows %v, want %v", vi, s.stepRows, union)
	}
	for _, r := range s.stepRows {
		s.stepUse[0][r], s.stepUse[1][r] = 0, 0
	}
	s.stepRows = s.stepRows[:0]

	if got, want := s.addIntCost(0, vi, ns), s.blockCost(vi, intBlock(ns)); !sameRow(got, want, true, 0) {
		t.Fatalf("video %d: candidate cost %v, blockCost of its placement %v", vi, got, want)
	}
}

// TestBlockRowsMatchReference pins the one walk of a block's coupling rows
// against mip.Solution's independent usage sums, at an LP point and at the
// rounded point, with and without link rows, on one reduction leaf and on
// many: the activity rebuild matches the reference (bit for bit on one
// leaf), and the descent's and the rounding step's sparse walks match dense
// walks and the reference for every video.
func TestBlockRowsMatchReference(t *testing.T) {
	leaves := []int{reduceLeafBlocks, 7} // one leaf, then nine
	for _, numSlices := range []int{0, 2} {
		for _, leaf := range leaves {
			forceMultiLeaf(t, leaf)
			inst := walkInstance(t, 13, numSlices)
			s, err := newSolver(inst, Options{Seed: 3, Workers: 2, MaxPasses: 8})
			if err != nil {
				t.Fatal(err)
			}
			exact := leaf == leaves[0]
			s.run(context.Background())
			checkStateRows(t, s, exact, "LP point")
			ws := &s.scratch[0]
			for vi := range s.sol {
				checkBlockWalks(t, s, vi, s.roundSolve(ws, vi))
			}
			s.round(s.packPoint(&WarmLP{}))
			checkStateRows(t, s, exact, "rounded point")
			for vi := range s.sol {
				checkBlockWalks(t, s, vi, s.roundSolve(ws, vi))
			}
			s.close()
		}
	}
}

// TestAddRowListingRule pins the sparse listing rule every touched-row walk
// shares: a row is listed when an add makes an exact-zero entry nonzero, so a
// zero add lists nothing and a row whose running sum returns to exactly 0 is
// listed again by the next nonzero add (the line-search double count).
func TestAddRowListingRule(t *testing.T) {
	dst := make([]float64, 4)
	var rows []int32
	for _, add := range []struct {
		r int
		v float64
	}{{2, 1}, {2, -1}, {2, 2}, {3, 0}, {1, math.SmallestNonzeroFloat64}, {1, 1}} {
		addRow(dst, &rows, add.r, add.v)
	}
	if want := []int32{2, 2, 1}; !slices.Equal(rows, want) {
		t.Errorf("listed rows %v, want %v", rows, want)
	}
	if want := []float64{0, 1, 2, 0}; !slices.Equal(dst, want) {
		t.Errorf("rows %v, want %v", dst, want)
	}
}

// fuzzWeights are the values the fuzzed blocks and concurrencies draw from:
// zeros and subnormals are where the listing rules of the sparse walks could
// diverge from a dense walk.
var fuzzWeights = []float64{1, 0, 0.5, 1.0 / 3, math.SmallestNonzeroFloat64, 0x1p-1040, 0.25, 2}

// FuzzBlockRows fuzzes fractional blocks and integer candidates on a small
// randomInstance-shaped problem with |T| from 0 to 3, weights and
// concurrencies drawn from fuzzWeights, and some video sizes subnormal; it
// checks the activity rebuild against mip.Solution bit for bit and every
// video's sparse walks against dense ones (checkBlockWalks).
func FuzzBlockRows(f *testing.F) {
	f.Add(int64(1), uint8(1), []byte{0, 1, 2, 3})
	f.Add(int64(7), uint8(0), []byte{})
	f.Add(int64(3), uint8(2), []byte{4, 0, 5, 1, 0, 0})
	f.Add(int64(5), uint8(3), []byte{0, 0, 0, 1, 4, 5, 6})
	f.Fuzz(func(t *testing.T, seed int64, slicesIn uint8, w []byte) {
		numSlices := int(slicesIn % 4)
		x := 0
		pick := func() float64 {
			x++
			if len(w) == 0 {
				return 1
			}
			return fuzzWeights[int(w[x%len(w)])%len(fuzzWeights)]
		}
		g, disk, caps, demands := randomProblem(t, seed, 6, 12, 2.0, 100)
		for v := range demands {
			d := &demands[v]
			if v%4 == 3 {
				d.SizeGB = math.SmallestNonzeroFloat64
			}
			base := d.Conc[0]
			d.Conc = make([][]float64, numSlices)
			for ts := range d.Conc {
				d.Conc[ts] = make([]float64, len(base))
				for k := range base {
					d.Conc[ts][k] = base[k] * pick()
				}
			}
		}
		inst, err := mip.NewInstance(g, disk, caps, numSlices, demands)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSolver(inst, Options{Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		rng := rand.New(rand.NewSource(seed))
		cands := make([]intSol, len(s.sol))
		for vi := range s.sol {
			bs := &s.sol[vi]
			bs.Open = bs.Open[:0]
			for _, i := range rng.Perm(s.n)[:1+rng.Intn(3)] {
				bs.Open = append(bs.Open, mip.Frac{I: int32(i), V: pick()})
			}
			ns := &cands[vi]
			ns.open = []int32{bs.Open[0].I, int32(rng.Intn(s.n))}
			for k := range bs.Assign {
				bs.Assign[k] = bs.Assign[k][:0]
				for _, f := range bs.Open {
					if rng.Intn(2) == 0 || len(bs.Assign[k]) == 0 {
						bs.Assign[k] = append(bs.Assign[k], mip.Frac{I: f.I, V: pick()})
					}
				}
				// Serving k as the block's first entry does makes the old
				// and new paths share rows, which the delta cancels to 0.
				ns.assign = append(ns.assign, ns.open[rng.Intn(2)])
				if rng.Intn(2) == 0 {
					ns.assign[k] = bs.Assign[k][0].I
				}
			}
		}
		checkStateRows(t, s, true, "fuzzed blocks")
		for vi := range s.sol {
			checkBlockWalks(t, s, vi, &cands[vi])
		}
	})
}
