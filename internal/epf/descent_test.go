package epf_test

import (
	"fmt"
	"math"
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

// standingBound are the additive-delta fixtures: what the benchmark's
// mixed-wide workload makes — an additive delta on a quarter of the videos —
// on instances whose warm re-solve converges in passes with the carried duals
// still the certificate (seedWarmDescent copied them in and nothing
// overwrote them). incumbent is the first pass that holds an ε-feasible
// incumbent.
var standingBound = []struct {
	shape             verify.InstanceOpts
	seed              int64
	add               float64
	passes, incumbent int
}{
	{boundShape, 1, 30, 7, 5},
	{boundShape, 7, 30, 7, 3},
	{verify.InstanceOpts{Nodes: 10, Videos: 240, Slices: 2}, 8, 80, 10, 4},
}

// standingBoundPair returns a standingBound fixture's name, the patched
// instance and the options of its warm re-solve.
func standingBoundPair(t *testing.T, i int) (string, *mip.Instance, epf.Options, *epf.Result) {
	tc := standingBound[i]
	name := fmt.Sprintf("%d videos, seed %d, +%g", tc.shape.Videos, tc.seed, tc.add)
	opts := epf.Options{Seed: tc.seed, MaxPasses: 300, Epsilon: 0.05}
	prev, inst := patchedPair(t, tc.seed, tc.shape, opts, func(inst *mip.Instance) {
		for x := 0; x < tc.shape.Videos/4; x++ {
			addDemand(t, inst, (int(tc.seed)+4*x)%tc.shape.Videos, x, tc.add)
		}
	})
	opts.Warm = prev.Warm
	return name, inst, opts, prev
}

// While a re-solve's bound is still the one re-derived from the carried
// duals, every bound step stalls, so the polish cadence first comes due on
// pass 3. A fixture with no incumbent by then gets one probe round, which
// fails to raise the bound and is the last; one that holds its incumbent by
// then (carriedBoundHolds) gets none. Both sides are pinned, the incumbent's
// pass read from OnPass, and each standingBound fixture runs enough passes
// for the cadence to have come due twice or more. The ledger is the same at
// every worker count.
func TestStandingBoundPolishedOnceBeforeIncumbent(t *testing.T) {
	for i, tc := range standingBound {
		name, inst, opts, prev := standingBoundPair(t, i)
		polishes := 0
		if tc.incumbent > 3 {
			polishes = 1
		}
		var first epf.Stats
		for _, workers := range []int{1, 2, 4} {
			opts.Workers = workers
			incumbent := 0
			opts.OnPass = func(p epf.PassInfo) {
				if incumbent == 0 && !math.IsInf(p.UpperBound, 1) {
					incumbent = p.Pass
				}
			}
			warm, err := epf.SolveInteger(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			st := warm.Stats
			if !warm.Converged || warm.Passes != tc.passes || !slices.Equal(warm.RowDuals, prev.Warm.RowDuals) {
				t.Fatalf("%s: converged %v after %d passes (want %d) on the carried duals: %v — not a standing-bound fixture",
					name, warm.Converged, warm.Passes, tc.passes, slices.Equal(warm.RowDuals, prev.Warm.RowDuals))
			}
			if incumbent != tc.incumbent {
				t.Fatalf("%s: first incumbent at pass %d; recorded at %d", name, incumbent, tc.incumbent)
			}
			if st.Polishes != polishes || st.LBRaised != 0 {
				t.Errorf("%s: %d polish rounds, %d of %d evaluations raised the bound; want %d with the incumbent at pass %d, and none",
					name, st.Polishes, st.LBRaised, st.LBEvals, polishes, incumbent)
			}
			if (st.PolishTime > 0) != (polishes > 0) || st.PolishTime > st.LBTime || st.LBTime > st.LPTime {
				t.Errorf("%s: polish %v of bound %v of lp %v", name, st.PolishTime, st.LBTime, st.LPTime)
			}
			if rep := verify.Audit(inst, warm); !rep.Ok() {
				t.Errorf("%s: fails the audit: %v", name, rep.Err())
			}
			if workers == 1 {
				first = st
			} else if st.Polishes != first.Polishes || st.LBEvals != first.LBEvals || st.LBRaised != first.LBRaised {
				t.Errorf("%s workers=%d: %d polish rounds, %d lb evals, %d raised vs %d, %d, %d",
					name, workers, st.Polishes, st.LBEvals, st.LBRaised, first.Polishes, first.LBEvals, first.LBRaised)
			}
		}
	}
}

// Once a warm re-solve holds an incumbent while its carried bound stands,
// every bound step is one evaluation at the carried scale; before the first
// incumbent the three-point search keeps the cadence of passes 1–8 and every
// third pass. Pinned on the standingBound fixtures by the evaluation ledger —
// the carried bound's evaluation, one per bound step (the converged pass has
// none), two more per scale search and six per polish round — at every
// worker count, and each fixture must have cadence passes the rule skipped.
func TestCarriedBoundSkipsScaleSearch(t *testing.T) {
	for i, tc := range standingBound {
		name, inst, opts, _ := standingBoundPair(t, i)
		for _, workers := range []int{1, 2, 3, 4} {
			opts.Workers = workers
			var infos []epf.PassInfo
			opts.OnPass = func(p epf.PassInfo) { infos = append(infos, p) }
			warm, err := epf.SolveInteger(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Passes != tc.passes || len(infos) != tc.passes {
				t.Fatalf("%s: %d passes, %d reported (want %d)", name, warm.Passes, len(infos), tc.passes)
			}
			var searched, skipped int64
			for _, p := range infos[:len(infos)-1] {
				if p.LowerBound != warm.LowerBound {
					t.Fatalf("%s: pass %d moved the bound to %v — not a standing-bound fixture", name, p.Pass, p.LowerBound)
				}
				if p.Pass > 8 && p.Pass%3 != 0 {
					continue
				}
				if math.IsInf(p.UpperBound, 1) {
					searched++
				} else {
					skipped++
				}
			}
			st := warm.Stats
			want := 1 + int64(tc.passes-1) + 2*searched + 6*int64(st.Polishes)
			if st.ScaleSearches != searched || st.LBEvals != want || skipped == 0 {
				t.Errorf("%s workers=%d: %d scale searches, %d lb evals; want %d, %d (%d cadence passes held an incumbent)",
					name, workers, st.ScaleSearches, st.LBEvals, searched, want, skipped)
			}
		}
	}
}

// With no incumbent yet the three-point search runs, and on a far-infeasible
// warm start (half the catalog's demand doubled: 30 % over capacity at the
// first pass) it is what raises the stale carried bound, on pass 3 as it
// did before the carried-bound rule; a narrow-only rule delays that raise to
// pass 8 and re-deals the solve (19 passes, another bound). Every value is
// the one recorded at the commit before the rule.
func TestFarInfeasibleWarmStartKeepsScaleSearch(t *testing.T) {
	shape := verify.InstanceOpts{Nodes: 10, Videos: 240, Slices: 2}
	opts := epf.Options{Seed: 2, MaxPasses: 300, Epsilon: 0.05}
	prev, inst := patchedPair(t, 2, shape, opts, func(inst *mip.Instance) {
		for vi := 0; vi < shape.Videos; vi += 2 {
			scaleDemand(t, inst, vi, 2)
		}
	})
	opts.Warm = prev.Warm
	var infos []epf.PassInfo
	opts.OnPass = func(p epf.PassInfo) { infos = append(infos, p) }
	warm, err := epf.SolveInteger(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	carried, err := verify.CertifyLowerBound(inst, prev.Warm.RowDuals)
	if err != nil {
		t.Fatal(err)
	}
	const (
		passes, incumbent       = 26, 15
		raised, lb, obj         = 18235.61933397914, 18420.761028179015, 20159.69148768719
		searches, evals, polish = 14, 102, 8
	)
	if warm.Passes != passes || len(infos) != passes {
		t.Fatalf("%d passes, %d reported; recorded %d", warm.Passes, len(infos), passes)
	}
	for _, p := range infos[:incumbent-1] {
		if !math.IsInf(p.UpperBound, 1) {
			t.Fatalf("incumbent at pass %d; recorded at %d", p.Pass, incumbent)
		}
	}
	if stale := infos[1].LowerBound; math.Abs(stale-carried) > 1e-9*carried || infos[2].LowerBound != raised {
		t.Errorf("bound %v at pass 2 (carried duals certify %v), %v at pass 3; recorded the carried bound, then %v",
			stale, carried, infos[2].LowerBound, raised)
	}
	st := warm.Stats
	if warm.LowerBound != lb || warm.Objective != obj || st.ScaleSearches != searches || st.LBEvals != evals || st.Polishes != polish {
		t.Errorf("bound %#v, objective %#v, %d scale searches, %d lb evals, %d polish rounds; recorded %#v, %#v, %d, %d, %d",
			warm.LowerBound, warm.Objective, st.ScaleSearches, st.LBEvals, st.Polishes, lb, obj, searches, evals, polish)
	}
}

// Once a solve has raised its own bound the polish keeps its cadence: these
// re-solves (resume_test.go's scaled quarter-catalog patches at ε = 1 %)
// raise the stale carried bound before their first incumbent and end on
// duals of their own, with the pass and polish-round counts recorded at the
// commit before the standing-bound rule.
func TestRisingBoundKeepsPolishCadence(t *testing.T) {
	const videos = 120
	for _, tc := range []struct {
		seed             int64
		patched          int
		passes, polishes int
	}{
		{1, videos / 4, 95, 31},
		{2, videos / 4, 109, 36},
		{3, videos / 4, 86, 26},
		{4, videos / 4, 79, 26},
		{8, videos / 4, 84, 27},
	} {
		opts := epf.Options{Seed: tc.seed, MaxPasses: 300, Epsilon: 0.01}
		prev, inst := patchedPair(t, tc.seed, boundShape, opts, func(inst *mip.Instance) {
			for x := 0; x < tc.patched; x++ {
				scaleDemand(t, inst, int(tc.seed+int64(7*x))%videos, 1.25+0.25*float64(x%4))
			}
		})
		opts.Warm = prev.Warm
		var raisedBeforeIncumbent bool
		pass1 := math.NaN()
		opts.OnPass = func(p epf.PassInfo) {
			if p.Pass == 1 {
				pass1 = p.LowerBound
			} else if math.IsInf(p.UpperBound, 1) && p.LowerBound != pass1 {
				raisedBeforeIncumbent = true
			}
		}
		warm, err := epf.SolveInteger(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(warm.RowDuals, prev.Warm.RowDuals) || !raisedBeforeIncumbent {
			t.Fatalf("seed %d, %d patched: the carried bound stood until the first incumbent — not a rising-bound fixture", tc.seed, tc.patched)
		}
		if warm.Passes != tc.passes || warm.Stats.Polishes != tc.polishes {
			t.Errorf("seed %d, %d patched: %d passes, %d polish rounds; recorded %d, %d",
				tc.seed, tc.patched, warm.Passes, warm.Stats.Polishes, tc.passes, tc.polishes)
		}
	}
}

// Which warm re-solves of the differential corpus converge within the pass
// budget: resume_test.go's scaled patches of one, two and a quarter of the
// videos on seeds 1–8, at 120 videos and ε = 5 % and 1 % and at 240 videos
// and ε = 5 %, one worker each. The set that runs the budget out is the one
// recorded before carriedBoundHolds gated the probe polish (a rule with no
// probe at all on a standing bound adds 120 videos, ε = 1 %, seed 2 to it),
// and every result passes the audit. The 240-video ε = 1 % group is left to
// EXPERIMENTS.md: it alone takes longer than the rest together.
func TestWarmConvergenceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("72 warm re-solves, six of them 300 passes long")
	}
	for _, g := range []struct {
		videos int
		eps    float64
		stuck  []string // seed/patched
	}{
		{120, 0.05, nil},
		{120, 0.01, []string{"5/30", "6/30"}},
		{240, 0.05, []string{"3/1", "3/2", "3/60", "8/60"}},
	} {
		t.Run(fmt.Sprintf("%d videos, eps %g", g.videos, g.eps), func(t *testing.T) {
			t.Parallel()
			shape := verify.InstanceOpts{Nodes: 8, Videos: g.videos, Slices: 2}
			var stuck []string
			for seed := int64(1); seed <= 8; seed++ {
				opts := epf.Options{Seed: seed, MaxPasses: 300, Epsilon: g.eps, Workers: 1}
				base, err := verify.RandomInstance(seed, shape)
				if err != nil {
					t.Fatal(err)
				}
				prev, err := epf.SolveInteger(base, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Warm = prev.Warm
				for _, k := range []int{1, 2, g.videos / 4} {
					inst, err := verify.RandomInstance(seed, shape)
					if err != nil {
						t.Fatal(err)
					}
					for x := 0; x < k; x++ {
						scaleDemand(t, inst, int(seed+int64(7*x))%g.videos, 1.25+0.25*float64(x%4))
					}
					warm, err := epf.SolveInteger(inst, opts)
					if err != nil {
						t.Fatal(err)
					}
					if rep := verify.Audit(inst, warm); !rep.Ok() {
						t.Errorf("seed %d, %d patched: fails the audit: %v", seed, k, rep.Err())
					}
					if !warm.Converged {
						stuck = append(stuck, fmt.Sprintf("%d/%d", seed, k))
					}
				}
			}
			if !slices.Equal(stuck, g.stuck) {
				t.Errorf("re-solves that ran the pass budget out (seed/patched): %v; recorded %v", stuck, g.stuck)
			}
		})
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
// the re-solve 11 on a carried bound that stands, holding its incumbent from
// the first pass. So carriedBoundHolds at every bound step: 11 evaluations,
// the seed's and one per pass before the converged one, with no scale search
// and no polish round. The cold solve is outside the timer but repeats per
// calibration run, so -short skips the benchmark.
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
