package epf_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"vodplace/internal/core"
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
		var polishes int64
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
			if st.Bound[epf.BoundPolish].Steps != polishes || st.Bound.Total().Raised != 0 {
				t.Errorf("%s: %d polish rounds, %d of %d evaluations raised the bound; want %d with the incumbent at pass %d, and none",
					name, st.Bound[epf.BoundPolish].Steps, st.Bound.Total().Raised, st.LBEvals, polishes, incumbent)
			}
			if (st.PolishTime > 0) != (polishes > 0) || st.PolishTime > st.LBTime || st.LBTime > st.LPTime {
				t.Errorf("%s: polish %v of bound %v of lp %v", name, st.PolishTime, st.LBTime, st.LPTime)
			}
			if rep := verify.Audit(inst, warm); !rep.Ok() {
				t.Errorf("%s: fails the audit: %v", name, rep.Err())
			}
			if workers == 1 {
				first = st
			} else if st.Bound != first.Bound || st.LBEvals != first.LBEvals {
				t.Errorf("%s workers=%d: bound ledger %v, %d lb evals vs %v, %d",
					name, workers, st.Bound, st.LBEvals, first.Bound, first.LBEvals)
			}
		}
	}
}

// Once a warm re-solve holds an incumbent while its carried bound stands,
// every bound step is one evaluation at the carried scale; before the first
// incumbent the three-point search keeps the cadence of passes 1–8 and every
// third pass. Pinned on the standingBound fixtures by the evaluation ledger —
// the carried bound's evaluation, one per bound step (the converged pass has
// none), two more per scale search, six per polish round and one certify
// evaluation per stall (every third bound step) that held an incumbent and did
// not certify it — at every worker count, and each fixture must have cadence
// passes the rule skipped.
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
			var searched, skipped, certify int64
			for _, p := range infos[:len(infos)-1] {
				if p.LowerBound != warm.LowerBound {
					t.Fatalf("%s: pass %d moved the bound to %v — not a standing-bound fixture", name, p.Pass, p.LowerBound)
				}
				if p.Pass%3 == 0 && !math.IsInf(p.UpperBound, 1) {
					certify++
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
			want := 1 + int64(tc.passes-1) + 2*searched + 6*st.Bound[epf.BoundPolish].Steps + certify
			if st.Bound[epf.BoundSearch].Steps != searched || st.Bound[epf.BoundCertify].Evals != certify || st.LBEvals != want || skipped == 0 {
				t.Errorf("%s workers=%d: %d scale searches, %d certify evals, %d lb evals; want %d, %d, %d (%d cadence passes held an incumbent)",
					name, workers, st.Bound[epf.BoundSearch].Steps, st.Bound[epf.BoundCertify].Evals, st.LBEvals, searched, certify, want, skipped)
			}
			checkLedger(t, name, st, 1)
		}
	}
}

// With no incumbent yet the three-point search runs, and on a far-infeasible
// warm start (half the catalog's demand doubled: 30 % over capacity at the
// first pass) it is what raises the stale carried bound, on pass 3 as it
// did before the carried-bound rule; a narrow-only rule delays that raise to
// pass 8 and re-deals the solve (19 passes, another bound). The values are
// recorded at the commit that added the certify tier: the cold solve's
// certified terms carry a lift, so the re-solve's objective target starts
// below the carried bound and the trajectory differs from pass 1 (26 passes
// and bound 18420.761028179015 before); the certify tier ends it at pass 18.
// The stale bound stands through pass 2, and the carried duals' certificate
// covers it.
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
		passes, incumbent       = 18, 15
		raised, lb, obj         = 18212.459694190504, 18728.945818856748, 19981.750122003454
		searches, evals, polish = 12, 75, 5
	)
	if warm.Passes != passes || len(infos) != passes {
		t.Fatalf("%d passes, %d reported; recorded %d", warm.Passes, len(infos), passes)
	}
	for _, p := range infos[:incumbent-1] {
		if !math.IsInf(p.UpperBound, 1) {
			t.Fatalf("incumbent at pass %d; recorded at %d", p.Pass, incumbent)
		}
	}
	if stale := infos[1].LowerBound; stale != infos[0].LowerBound || stale > carried*(1+verify.CertTol) || infos[2].LowerBound != raised {
		t.Errorf("bound %v at pass 1, %v at pass 2 (carried duals certify %v), %v at pass 3; recorded the carried bound twice, then %v",
			infos[0].LowerBound, stale, carried, infos[2].LowerBound, raised)
	}
	st := warm.Stats
	if warm.LowerBound != lb || warm.Objective != obj || st.Bound[epf.BoundSearch].Steps != searches || st.LBEvals != evals || st.Bound[epf.BoundPolish].Steps != polish {
		t.Errorf("bound %#v, objective %#v, %d scale searches, %d lb evals, %d polish rounds; recorded %#v, %#v, %d, %d, %d",
			warm.LowerBound, warm.Objective, st.Bound[epf.BoundSearch].Steps, st.LBEvals, st.Bound[epf.BoundPolish].Steps, lb, obj, searches, evals, polish)
	}
}

// Once a solve has raised its own bound the polish keeps its cadence until it
// has paid: after a round raised the bound, the first round that raises
// nothing is the solve's last. These re-solves (resume_test.go's scaled
// quarter-catalog patches at ε = 1 %) raise the stale carried bound before
// their first incumbent and end on duals of their own. The passes, rounds and
// raises are recorded at the commit that added the certify tier, which ends
// every one of them at a stall and moves their trajectories from pass 1 (the
// carried terms' lift lowers the objective target): 101, 109, 86, 87 and 84
// passes with 3, 2, 5, 4 and 3 rounds before. Seed 3's five rounds raise
// nothing, so its polish never pays and keeps its cadence.
func TestRisingBoundPolishEndsAtFirstFailedRound(t *testing.T) {
	const videos = 120
	for _, tc := range []struct {
		seed                   int64
		patched, passes        int
		polishes, polishRaised int64
	}{
		{1, videos / 4, 96, 2, 3},
		{2, videos / 4, 102, 2, 1},
		{3, videos / 4, 38, 5, 0},
		{4, videos / 4, 54, 2, 2},
		{8, videos / 4, 60, 3, 2},
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
		polish := warm.Stats.Bound[epf.BoundPolish]
		if warm.Passes != tc.passes || polish.Steps != tc.polishes || polish.Raised != tc.polishRaised {
			t.Errorf("seed %d, %d patched: %d passes, %d polish rounds (%d raises); recorded %d, %d (%d)",
				tc.seed, tc.patched, warm.Passes, polish.Steps, polish.Raised, tc.passes, tc.polishes, tc.polishRaised)
		}
	}
}

// Which warm re-solves of the differential corpus converge within the pass
// budget: resume_test.go's scaled patches of one, two and a quarter of the
// videos on seeds 1–8, at 120 videos and ε = 5 % and 1 % and at 240 videos
// and ε = 5 %, one worker each. The set that runs the budget out is the one
// recorded before carriedBoundHolds gated the probe polish (a rule with no
// probe at all on a standing bound adds 120 videos, ε = 1 %, seed 2 to it),
// less 120 videos, ε = 1 %, seeds 5 and 6 (a quarter patched), which the
// certify tier converges, and every result passes the audit. The 240-video ε = 1 % group is left to
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
		{120, 0.01, nil},
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
// standing-bound rule never binds. The certify tier ends each of these solves
// at a stall with an incumbent its adjusted bound certifies: seed 1 at pass
// 76 (81 before), seed 2 at 80 (105), seed 3 at 49 (57). Up to that pass each
// trajectory is the commit before the tier's (prefix, trajectoryHash), so
// the polish rounds and their raises are the ones recorded there; the bound
// is the certified one and the objective is the rounding of the certifying
// pass's incumbent. The bound ledger's scale searches, certify evaluations,
// polish rounds and raises, and its total raises, are the counters the
// commit before the ledger recorded.
func TestColdSolveMatchesRecordedParent(t *testing.T) {
	for _, tc := range []struct {
		seed                           int64
		passes                         int
		searches, certify              int64
		polishes, polishRaised, raised int64
		lb, obj                        float64
		prefix                         uint64
	}{
		{1, 76, 31, 19, 3, 5, 7, 4422.429882494837, 4521.347794740112, 0xf0dfd29e8f15e4c0},
		{2, 80, 32, 19, 3, 5, 11, 4513.013716991614, 4597.110772581575, 0x4bc533b0d5aca038},
		{3, 49, 22, 11, 5, 9, 17, 5018.695766230619, 5120.274528375847, 0x289e98f573750611},
	} {
		inst, err := verify.RandomInstance(tc.seed, boundShape)
		if err != nil {
			t.Fatal(err)
		}
		var infos []epf.PassInfo
		res, err := epf.SolveInteger(inst, epf.Options{Seed: tc.seed, MaxPasses: 300, Epsilon: 0.01,
			OnPass: func(p epf.PassInfo) { infos = append(infos, p) }})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		polish := st.Bound[epf.BoundPolish]
		if res.Passes != tc.passes || polish.Steps != tc.polishes || polish.Raised != tc.polishRaised || res.LowerBound != tc.lb || res.Objective != tc.obj {
			t.Errorf("seed %d: %d passes, %d polish rounds (%d raises), bound %#v, objective %#v; recorded %d, %d (%d), %#v, %#v",
				tc.seed, res.Passes, polish.Steps, polish.Raised, res.LowerBound, res.Objective, tc.passes, tc.polishes, tc.polishRaised, tc.lb, tc.obj)
		}
		wantCertify := epf.BoundSteps{Steps: tc.certify, Evals: tc.certify, Raised: 1}
		if st.Bound[epf.BoundSearch].Steps != tc.searches || st.Bound[epf.BoundCertify] != wantCertify ||
			polish.Evals != 6*tc.polishes || st.Bound.Total().Raised != tc.raised {
			t.Errorf("seed %d: bound ledger %+v; recorded %d scale searches, %d certify evaluations (the last certified), %d polish evaluations, %d raises",
				tc.seed, st.Bound, tc.searches, tc.certify, 6*tc.polishes, tc.raised)
		}
		checkLedger(t, fmt.Sprintf("seed %d", tc.seed), st, 0)
		if h := trajectoryHash(infos, len(infos)-1); h != tc.prefix {
			t.Errorf("seed %d: trajectory up to the certifying pass hashes to %#x; the commit before the tier's to %#x", tc.seed, h, tc.prefix)
		}
	}
}

// The FEAS(B) rescue raises the objective-row target's premium when no
// ε-feasible point has appeared by three quarters of the pass budget and the
// violation has stopped falling over the last 8 passes. On this 40-video
// instance, whose disk is 1 % over one copy of the catalog, it fires twice
// within the 60-pass cap and the solve ends without an incumbent. Passes,
// bound, objective and the whole trajectory are the ones recorded at the
// commit before the bound step became one type.
func TestFeasRescueMatchesRecordedParent(t *testing.T) {
	const (
		seed, maxPasses = 3, 60
		lb, obj         = 1948.173066345067, 2039.942994563409
		trajectory      = 0x388dccd3839c6591
	)
	inst, err := verify.RandomInstance(seed, verify.InstanceOpts{Nodes: 8, Videos: 40, Slices: 2, DiskFactor: 1.01})
	if err != nil {
		t.Fatal(err)
	}
	var infos []epf.PassInfo
	res, err := epf.Solve(inst, epf.Options{Seed: seed, MaxPasses: maxPasses, Epsilon: 0.01,
		OnPass: func(p epf.PassInfo) { infos = append(infos, p) }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Passes != maxPasses || !math.IsInf(infos[len(infos)-1].UpperBound, 1) {
		t.Fatalf("converged %v after %d passes, incumbent %v; recorded the %d-pass budget run out with none",
			res.Converged, res.Passes, infos[len(infos)-1].UpperBound, maxPasses)
	}
	if res.LowerBound != lb || res.Objective != obj {
		t.Errorf("bound %#v, objective %#v; recorded %#v, %#v", res.LowerBound, res.Objective, lb, obj)
	}
	if h := trajectoryHash(infos, len(infos)-1); h != trajectory {
		t.Errorf("trajectory hashes to %#x; recorded %#x", h, uint64(trajectory))
	}
}

// checkLedger fails unless the bound ledger's evaluations are every LR
// evaluation of the solve but the warm seed's seeded of them.
func checkLedger(t *testing.T, name string, st epf.Stats, seeded int64) {
	t.Helper()
	if evals := st.Bound.Total().Evals; evals != st.LBEvals-seeded {
		t.Errorf("%s: the bound ledger %+v counts %d evaluations; the solve ran %d, %d of them the warm seed's",
			name, st.Bound, evals, st.LBEvals, seeded)
	}
}

// trajectoryHash folds the objective and bound bits of passes 1..upTo, then
// the objective bits of pass upTo+1, into one FNV-1a word: the trajectory up
// to a pass whose descent step is shared but whose bound step differs.
func trajectoryHash(infos []epf.PassInfo, upTo int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, p := range infos[:upTo] {
		word(p.Objective)
		word(p.LowerBound)
	}
	word(infos[upTo].Objective)
	return h.Sum64()
}

// The certify tier ends the 1 000-video deployment of the command-line tools
// at seed 2 and ε = 5 % at its first stall with an incumbent whose adjusted
// bound certifies it: pass 39 instead of 77. Up to that pass the trajectory is
// the one the commit before the tier ran — every pass's objective and bound,
// and the certifying pass's objective, hash to the value recorded there —
// and passes, bound and objective are the same bits at Workers 1, 2 and 3.
// The certified bound is the one verify.CertifyLowerBound re-derives from
// the exported duals.
func TestCertifyTierWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("three 1 000-video cold solves")
	}
	dep := core.Deployment{Videos: 1000, VHOs: 55, Slices: 2, RPD: 4, Disk: 2, Link: 1000, Window: 3600, Seed: 2}
	inst, err := dep.Instance()
	if err != nil {
		t.Fatal(err)
	}
	const (
		passes, certify = 39, 5
		evals           = 94
		lb, obj         = 18284.56122618723, 21630.899999999987
		parentPrefix    = 0xa24ec00d599940d2
	)
	var first epf.BoundLedger
	for _, workers := range []int{1, 2, 3} {
		var infos []epf.PassInfo
		res, err := epf.SolveInteger(inst, epf.Options{Seed: dep.Seed, MaxPasses: 300, Epsilon: 0.05, Workers: workers,
			OnPass: func(p epf.PassInfo) { infos = append(infos, p) }})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if res.Passes != passes || res.LowerBound != lb || res.Objective != obj || st.LBEvals != evals || st.Bound[epf.BoundCertify].Evals != certify {
			t.Errorf("workers=%d: %d passes, bound %#v, objective %#v, %d lb evals, %d certify evals; recorded %d, %#v, %#v, %d, %d",
				workers, res.Passes, res.LowerBound, res.Objective, st.LBEvals, st.Bound[epf.BoundCertify].Evals, passes, lb, obj, evals, certify)
		}
		if workers == 1 {
			first = st.Bound
		} else if st.Bound != first {
			t.Errorf("workers=%d: bound ledger %+v; at Workers 1 %+v", workers, st.Bound, first)
		}
		if h := trajectoryHash(infos, len(infos)-1); h != parentPrefix {
			t.Errorf("workers=%d: trajectory up to the certifying pass hashes to %#x; the commit before the tier's to %#x", workers, h, uint64(parentPrefix))
		}
		if workers == 1 {
			cert, err := verify.CertifyLowerBound(inst, res.RowDuals)
			if err != nil || math.Abs(cert-res.LowerBound) > verify.CertTol*cert {
				t.Errorf("claimed bound %v, certificate %v (%v)", res.LowerBound, cert, err)
			}
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
	b.ReportMetric(float64(st.Bound[epf.BoundPolish].Steps), "polish_rounds")
	b.ReportMetric(1e3*st.LBTime.Seconds(), "lb_ms")
}
