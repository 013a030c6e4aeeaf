package verify

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/simplex"
)

func mustInstance(t *testing.T, seed int64, opts InstanceOpts) *mip.Instance {
	t.Helper()
	inst, err := RandomInstance(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func solveExact(t *testing.T, inst *mip.Instance) (*mip.Solution, float64) {
	t.Helper()
	lp, vm, err := simplex.BuildPlacementLP(inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simplex.Solve(lp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != simplex.Optimal {
		t.Fatalf("LP status %v", res.Status)
	}
	return vm.ExtractSolution(res.X), res.Objective
}

func TestCheckSolutionOnExactLPOptimum(t *testing.T) {
	inst := mustInstance(t, 11, InstanceOpts{})
	sol, opt := solveExact(t, inst)
	r := CheckSolution(sol)
	if !r.Ok() {
		t.Fatalf("LP-optimal solution failed audit: %v", r.Err())
	}
	if relDiff(r.Objective, opt) > CertTol {
		t.Errorf("recomputed objective %g vs LP objective %g", r.Objective, opt)
	}
	if v := r.Violation; v.Disk > CertTol || v.Link > CertTol || v.Unserved > CertTol || v.XExceedsY > CertTol {
		t.Errorf("LP-optimal solution shows violations: %+v", v)
	}
}

func TestCheckSolutionStructuralFailures(t *testing.T) {
	inst := mustInstance(t, 12, InstanceOpts{})
	base, _ := solveExact(t, inst)

	t.Run("nil", func(t *testing.T) {
		if CheckSolution(nil).Ok() {
			t.Error("nil solution passed")
		}
	})
	t.Run("open out of range", func(t *testing.T) {
		sol, _ := solveExact(t, inst)
		sol.Videos[0].Open[0].I = int32(inst.NumVHOs())
		if CheckSolution(sol).Ok() {
			t.Error("out-of-range open office passed")
		}
	})
	t.Run("non-ascending open", func(t *testing.T) {
		sol, _ := solveExact(t, inst)
		var vi int
		for vi = range sol.Videos {
			if len(sol.Videos[vi].Open) >= 2 {
				break
			}
		}
		open := sol.Videos[vi].Open
		if len(open) < 2 {
			t.Skip("no video with two open offices")
		}
		open[0], open[1] = open[1], open[0]
		if CheckSolution(sol).Ok() {
			t.Error("non-ascending open list passed")
		}
	})
	t.Run("y above one", func(t *testing.T) {
		sol, _ := solveExact(t, inst)
		sol.Videos[0].Open[0].V = 1.5
		r := CheckSolution(sol)
		if r.Ok() {
			t.Error("y = 1.5 passed")
		}
	})
	t.Run("negative x", func(t *testing.T) {
		sol, _ := solveExact(t, inst)
		var done bool
		for vi := range sol.Videos {
			if len(sol.Videos[vi].Assign) > 0 && len(sol.Videos[vi].Assign[0]) > 0 {
				sol.Videos[vi].Assign[0][0].V = -0.5
				done = true
				break
			}
		}
		if !done {
			t.Skip("no assignment to corrupt")
		}
		if CheckSolution(sol).Ok() {
			t.Error("negative x passed")
		}
	})
	// Make sure the baseline itself was fine, so the subtests failed for the
	// corruption and not for a broken fixture.
	if r := CheckSolution(base); !r.Ok() {
		t.Fatalf("baseline solution failed: %v", r.Err())
	}
}

func TestCheckSolutionFindsViolations(t *testing.T) {
	inst := mustInstance(t, 13, InstanceOpts{})
	t.Run("unserved", func(t *testing.T) {
		sol, _ := solveExact(t, inst)
		var done bool
		for vi := range sol.Videos {
			if len(sol.Videos[vi].Assign) > 0 && len(sol.Videos[vi].Assign[0]) > 0 {
				sol.Videos[vi].Assign[0] = sol.Videos[vi].Assign[0][:0]
				done = true
				break
			}
		}
		if !done {
			t.Skip("no assignment row")
		}
		r := CheckSolution(sol)
		if r.Violation.Unserved < 1-CertTol {
			t.Errorf("dropped assignment row not reflected: unserved = %g", r.Violation.Unserved)
		}
	})
	t.Run("disk overflow", func(t *testing.T) {
		sol, _ := solveExact(t, inst)
		// Open every video everywhere at full strength: with DiskFactor 2 the
		// library fits twice over but not n times over.
		for vi := range sol.Videos {
			sol.Videos[vi].Open = sol.Videos[vi].Open[:0]
			for i := 0; i < inst.NumVHOs(); i++ {
				sol.Videos[vi].Open = append(sol.Videos[vi].Open, mip.Frac{I: int32(i), V: 1})
			}
		}
		r := CheckSolution(sol)
		if r.Violation.Disk <= 0 {
			t.Errorf("everything-everywhere placement shows no disk violation (%g)", r.Violation.Disk)
		}
	})
}

func TestAuditPassesOnSolverOutput(t *testing.T) {
	inst := mustInstance(t, 21, InstanceOpts{})
	for _, tc := range []struct {
		name  string
		solve func() (*epf.Result, error)
	}{
		{"LP", func() (*epf.Result, error) { return epf.Solve(inst, epf.Options{Seed: 21, MaxPasses: 200}) }},
		{"integer", func() (*epf.Result, error) { return epf.SolveInteger(inst, epf.Options{Seed: 21, MaxPasses: 200}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.solve()
			if err != nil {
				t.Fatal(err)
			}
			wantRows := inst.NumVHOs() + inst.G.NumLinks()*inst.Slices
			if len(res.RowDuals) != wantRows {
				t.Fatalf("RowDuals has %d entries, want %d", len(res.RowDuals), wantRows)
			}
			r := Audit(inst, res)
			if !r.Ok() {
				t.Fatalf("audit failed: %v", r.Err())
			}
			if r.CertifiedLB <= 0 {
				t.Errorf("certified lower bound %g not positive", r.CertifiedLB)
			}
			if res.LowerBound > r.CertifiedLB*(1+CertTol)+CertTol {
				t.Errorf("claimed bound %g above certified %g", res.LowerBound, r.CertifiedLB)
			}
			t.Logf("%s: obj %.3f, claimed lb %.3f, certified lb %.3f, gap %.2f%%",
				tc.name, r.Objective, r.ClaimedLB, r.CertifiedLB, 100*r.Gap)
		})
	}
}

func TestAuditDetectsFalseClaims(t *testing.T) {
	inst := mustInstance(t, 22, InstanceOpts{})
	solve := func(t *testing.T) *epf.Result {
		t.Helper()
		res, err := epf.Solve(inst, epf.Options{Seed: 22, MaxPasses: 200})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	t.Run("inflated objective", func(t *testing.T) {
		res := solve(t)
		res.Objective *= 1.5
		if Audit(inst, res).Ok() {
			t.Error("inflated objective claim passed")
		}
	})
	t.Run("inflated lower bound", func(t *testing.T) {
		res := solve(t)
		res.LowerBound = res.Objective * 2
		if Audit(inst, res).Ok() {
			t.Error("lower bound above the optimum passed certification")
		}
	})
	t.Run("understated disk violation", func(t *testing.T) {
		res := solve(t)
		// Double every placement: real disk usage doubles but the claim stays.
		for vi := range res.Sol.Videos {
			for oi := range res.Sol.Videos[vi].Open {
				res.Sol.Videos[vi].Open[oi].V = math.Min(1, 2*res.Sol.Videos[vi].Open[oi].V)
			}
		}
		if Audit(inst, res).Ok() {
			t.Error("tampered placements passed the claimed-violation cross-check")
		}
	})
	t.Run("broken conservation", func(t *testing.T) {
		res := solve(t)
		var done bool
		for vi := range res.Sol.Videos {
			if len(res.Sol.Videos[vi].Assign) > 0 && len(res.Sol.Videos[vi].Assign[0]) > 0 {
				res.Sol.Videos[vi].Assign[0] = res.Sol.Videos[vi].Assign[0][:0]
				done = true
				break
			}
		}
		if !done {
			t.Skip("no assignment row")
		}
		if Audit(inst, res).Ok() {
			t.Error("broken conservation passed")
		}
	})
	t.Run("corrupted duals", func(t *testing.T) {
		res := solve(t)
		if len(res.RowDuals) == 0 {
			t.Fatal("no duals")
		}
		res.RowDuals[0] = math.NaN()
		if Audit(inst, res).Ok() {
			t.Error("NaN dual passed")
		}
	})
	t.Run("foreign instance", func(t *testing.T) {
		res := solve(t)
		other := mustInstance(t, 23, InstanceOpts{})
		if Audit(other, res).Ok() {
			t.Error("audit against the wrong instance passed")
		}
	})
}

func TestCertifyLowerBound(t *testing.T) {
	inst := mustInstance(t, 31, InstanceOpts{})
	_, opt := solveExact(t, inst)

	t.Run("nil duals give trivial bound", func(t *testing.T) {
		lb, err := CertifyLowerBound(inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lb <= 0 || lb > opt+CertTol*(1+opt) {
			t.Errorf("trivial bound %g outside (0, LP opt %g]", lb, opt)
		}
	})
	t.Run("zero duals match trivial bound", func(t *testing.T) {
		lbNil, _ := CertifyLowerBound(inst, nil)
		zero := make([]float64, inst.NumVHOs()+inst.G.NumLinks()*inst.Slices)
		lb, err := CertifyLowerBound(inst, zero)
		if err != nil {
			t.Fatal(err)
		}
		if lb < lbNil-CertTol*(1+lbNil) {
			t.Errorf("λ=0 bound %g below trivial bound %g", lb, lbNil)
		}
		if lb > opt+CertTol*(1+opt) {
			t.Errorf("λ=0 bound %g exceeds LP optimum %g", lb, opt)
		}
	})
	t.Run("solver duals never exceed the optimum", func(t *testing.T) {
		res, err := epf.Solve(inst, epf.Options{Seed: 31, MaxPasses: 200})
		if err != nil {
			t.Fatal(err)
		}
		lb, err := CertifyLowerBound(inst, res.RowDuals)
		if err != nil {
			t.Fatal(err)
		}
		if lb > opt+CertTol*(1+opt) {
			t.Errorf("certified bound %g exceeds exact LP optimum %g", lb, opt)
		}
	})
	t.Run("rejects bad vectors", func(t *testing.T) {
		if _, err := CertifyLowerBound(nil, nil); err == nil {
			t.Error("nil instance accepted")
		}
		if _, err := CertifyLowerBound(inst, make([]float64, 3)); err == nil {
			t.Error("wrong-length dual vector accepted")
		}
		bad := make([]float64, inst.NumVHOs()+inst.G.NumLinks()*inst.Slices)
		bad[0] = -1
		if _, err := CertifyLowerBound(inst, bad); err == nil {
			t.Error("negative dual accepted")
		}
		bad[0] = math.Inf(1)
		if _, err := CertifyLowerBound(inst, bad); err == nil {
			t.Error("infinite dual accepted")
		}
	})
}

// certifyWith is CertifyLowerBound with its block bounds derived on a pool of
// the given size: a fresh Auditor's certificate.
func certifyWith(inst *mip.Instance, duals []float64, workers int) (float64, error) {
	a := Auditor{workers: workers}
	lb, _, err := a.certify(inst, duals, math.Inf(1))
	return lb, err
}

// The certificate's block bounds run on a pool, summed in video order with
// the lowest-index failure reported, so the certified value is the same bits
// and a failure the same text at every pool size.
func TestCertifyLowerBoundWorkerInvariance(t *testing.T) {
	inst := mustInstance(t, 3, InstanceOpts{Nodes: 8, Videos: 120, Slices: 2})
	res, err := epf.Solve(inst, epf.Options{Seed: 3, MaxPasses: 100, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, len(res.RowDuals))
	for r := range ones {
		ones[r] = 1
	}
	for _, duals := range [][]float64{res.RowDuals, ones} {
		want, err := certifyWith(inst, duals, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			if got, err := certifyWith(inst, duals, workers); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%d workers: certified %v (%v), one worker %v", workers, got, err, want)
			}
		}
	}

	// A negative size prices a video's disk rows below zero, an open cost no
	// UFL dual can cover: two such videos in the last two quarters of the
	// catalog fail on different workers, and the lower index is reported.
	for _, vi := range []int{95, 70} {
		inst.Demands[vi].SizeGB = -1
	}
	_, want := certifyWith(inst, ones, 1)
	if prefix := fmt.Sprintf("video %d: ", inst.Demands[70].Video); want == nil || !strings.HasPrefix(want.Error(), prefix) {
		t.Fatalf("one worker: error %v, want one starting %q", want, prefix)
	}
	for _, workers := range []int{2, 4} {
		if _, err := certifyWith(inst, ones, workers); err == nil || err.Error() != want.Error() {
			t.Errorf("%d workers: error %v, one worker %v", workers, err, want)
		}
	}
}
