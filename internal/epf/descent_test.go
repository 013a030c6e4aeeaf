package epf_test

import (
	"fmt"
	"slices"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/verify"
)

// boundShape is the 120-video differential corpus of resume_test.go.
var boundShape = verify.InstanceOpts{Nodes: 8, Videos: 120, Slices: 2}

// addDemand adds add requests (and a tenth of it to every slice's
// concurrency) at video vi's k-th demand office.
func addDemand(t testing.TB, inst *mip.Instance, vi, k int, add float64) {
	t.Helper()
	patchDemand(t, inst, vi, func(agg []float64, conc [][]float64) {
		k %= len(agg)
		agg[k] += add
		for _, row := range conc {
			row[k] += add / 10
		}
	})
}

// While a re-solve's bound is still the one re-derived from the carried
// duals, one polish round that fails to raise it is the last. The fixtures
// are what the benchmark's mixed-wide workload makes — an additive delta on a
// quarter of the videos — and each ends with the carried duals still the
// certificate (seedWarmDescent copied them in and nothing overwrote them)
// after enough passes for the every-third-stall cadence to have fired twice
// or more. The ledger is the same on the whole worker × shard grid.
func TestStandingBoundIsPolishedOnce(t *testing.T) {
	for _, tc := range []struct {
		shape  verify.InstanceOpts
		seed   int64
		add    float64
		passes int
	}{
		{boundShape, 1, 30, 7},
		{boundShape, 7, 30, 7},
		{verify.InstanceOpts{Nodes: 10, Videos: 240, Slices: 2}, 8, 80, 10},
	} {
		name := fmt.Sprintf("%d videos, seed %d, +%g", tc.shape.Videos, tc.seed, tc.add)
		opts := epf.Options{Seed: tc.seed, MaxPasses: 300, Epsilon: 0.05}
		prev, inst := patchedPair(t, tc.seed, tc.shape, opts, func(inst *mip.Instance) {
			for x := 0; x < tc.shape.Videos/4; x++ {
				addDemand(t, inst, (int(tc.seed)+4*x)%tc.shape.Videos, x, tc.add)
			}
		})
		opts.Warm = prev.Warm
		var first epf.Stats
		for _, workers := range []int{1, 2, 4} {
			for _, shards := range []int{1, 3} {
				opts.Workers, opts.Shards = workers, shards
				warm, err := epf.SolveInteger(inst, opts)
				if err != nil {
					t.Fatal(err)
				}
				st := warm.Stats
				if !warm.Converged || warm.Passes != tc.passes || !slices.Equal(warm.RowDuals, prev.Warm.RowDuals) {
					t.Fatalf("%s: converged %v after %d passes (want %d) on the carried duals: %v — not a standing-bound fixture",
						name, warm.Converged, warm.Passes, tc.passes, slices.Equal(warm.RowDuals, prev.Warm.RowDuals))
				}
				if st.Polishes != 1 || st.LBRaised != 0 {
					t.Errorf("%s: %d polish rounds, %d of %d evaluations raised the bound; want one probe round and none",
						name, st.Polishes, st.LBRaised, st.LBEvals)
				}
				if st.PolishTime <= 0 || st.PolishTime > st.LBTime || st.LBTime > st.LPTime {
					t.Errorf("%s: polish %v of bound %v of lp %v", name, st.PolishTime, st.LBTime, st.LPTime)
				}
				if rep := verify.Audit(inst, warm); !rep.Ok() {
					t.Errorf("%s: fails the audit: %v", name, rep.Err())
				}
				if workers == 1 && shards == 1 {
					first = st
				} else if st.Polishes != first.Polishes || st.LBEvals != first.LBEvals || st.LBRaised != first.LBRaised {
					t.Errorf("%s workers=%d shards=%d: %d polish rounds, %d lb evals, %d raised vs %d, %d, %d",
						name, workers, shards, st.Polishes, st.LBEvals, st.LBRaised, first.Polishes, first.LBEvals, first.LBRaised)
				}
			}
		}
	}
}

// Once a solve has raised its own bound the polish keeps its cadence: these
// re-solves (resume_test.go's scaled quarter-catalog and two-video patches at
// ε = 1 %) end on duals of their own, with the pass and polish-round counts
// recorded at the commit before the standing-bound rule.
func TestRisingBoundKeepsPolishCadence(t *testing.T) {
	const videos = 120
	for _, tc := range []struct {
		seed             int64
		patched          int
		passes, polishes int
	}{
		{1, 2, 15, 4},
		{1, videos / 4, 95, 31},
		{2, videos / 4, 109, 36},
		{3, videos / 4, 86, 26},
		{4, videos / 4, 79, 26},
	} {
		opts := epf.Options{Seed: tc.seed, MaxPasses: 300, Epsilon: 0.01}
		prev, inst := patchedPair(t, tc.seed, boundShape, opts, func(inst *mip.Instance) {
			for x := 0; x < tc.patched; x++ {
				scaleDemand(t, inst, int(tc.seed+int64(7*x))%videos, 1.25+0.25*float64(x%4))
			}
		})
		opts.Warm = prev.Warm
		warm, err := epf.SolveInteger(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(warm.RowDuals, prev.Warm.RowDuals) {
			t.Fatalf("seed %d, %d patched: the carried bound stood — not a rising-bound fixture", tc.seed, tc.patched)
		}
		if warm.Passes != tc.passes || warm.Stats.Polishes != tc.polishes {
			t.Errorf("seed %d, %d patched: %d passes, %d polish rounds; recorded %d, %d",
				tc.seed, tc.patched, warm.Passes, warm.Stats.Polishes, tc.passes, tc.polishes)
		}
	}
}

// A cold solve raises the no-network bound on its first evaluations, so the
// rule never binds: passes, polish rounds, bound and objective recorded at
// the commit before it.
func TestColdSolveMatchesRecordedParent(t *testing.T) {
	for _, tc := range []struct {
		seed             int64
		passes, polishes int
		lb, obj          float64
	}{
		{1, 75, 24, 4425.780083644067, 4524.559568863618},
		{2, 105, 30, 4496.301728510656, 4622.583152804269},
		{3, 57, 15, 5014.142439715974, 5096.477615810808},
	} {
		inst, err := verify.RandomInstance(tc.seed, boundShape)
		if err != nil {
			t.Fatal(err)
		}
		res, err := epf.SolveInteger(inst, epf.Options{Seed: tc.seed, MaxPasses: 300, Epsilon: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if res.Passes != tc.passes || res.Stats.Polishes != tc.polishes || res.LowerBound != tc.lb || res.Objective != tc.obj {
			t.Errorf("seed %d: %d passes, %d polish rounds, bound %#v, objective %#v; recorded %d, %d, %#v, %#v",
				tc.seed, res.Passes, res.Stats.Polishes, res.LowerBound, res.Objective, tc.passes, tc.polishes, tc.lb, tc.obj)
		}
	}
}

// Options.OnPass sees every pass, the one that meets the termination
// criterion included.
func TestOnPassSeesTheConvergedPass(t *testing.T) {
	inst, err := verify.RandomInstance(1, boundShape)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.05
	var calls int
	var last epf.PassInfo
	res, err := epf.Solve(inst, epf.Options{Seed: 1, MaxPasses: 300, Epsilon: eps, OnPass: func(p epf.PassInfo) {
		calls++
		last = p
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d passes", res.Passes)
	}
	if calls != res.Passes || last.Pass != res.Passes {
		t.Errorf("OnPass called %d times, last for pass %d, over %d passes", calls, last.Pass, res.Passes)
	}
	if last.UpperBound > (1+eps)*last.LowerBound+1e-9 {
		t.Errorf("last PassInfo is not the converged pass: upper bound %v, lower bound %v", last.UpperBound, last.LowerBound)
	}
}

// BenchmarkWarmResolveWide is the warm re-solve at serving scale after a wide
// delta (2000 videos × 55 offices, every fourth video's demand scaled): the
// shape of the benchmark's mixed-wide round, with the bound-side ledger
// beside ns/op. Disk and links are sized so capacity binds (the generator's
// defaults are infeasible at this size): the cold solve takes 17 passes and
// the re-solve 11 on a bound that stands — an instance where the repeated
// polish rounds did pay (9 passes, 3 rounds, 46 evaluations before the
// standing-bound rule, at 1.36 s against 1.02 s; EXPERIMENTS.md). The cold
// solve is outside the timer but repeats per calibration run, so -short
// skips the benchmark.
func BenchmarkWarmResolveWide(b *testing.B) {
	if testing.Short() {
		b.Skip("2000-video cold solve plus re-solves")
	}
	shape := verify.InstanceOpts{Nodes: 55, Videos: 2000, Slices: 2, DemandProb: 0.1, LinkCapMbps: 300}
	opts := epf.Options{Seed: 1, MaxPasses: 300, Epsilon: 0.05}
	prev, inst := patchedPair(b, 1, shape, opts, func(inst *mip.Instance) {
		for vi := 0; vi < shape.Videos; vi += 4 {
			scaleDemand(b, inst, vi, 1.25+0.25*float64(vi/4%4))
		}
	})
	opts.Warm = prev.Warm
	var st epf.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := epf.SolveInteger(inst, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("re-solve did not converge in %d passes", res.Passes)
		}
		st = res.Stats
	}
	b.ReportMetric(float64(st.Passes), "passes")
	b.ReportMetric(float64(st.LBEvals), "lb_evals")
	b.ReportMetric(float64(st.Polishes), "polish_rounds")
	b.ReportMetric(1e3*st.LBTime.Seconds(), "lb_ms")
}
