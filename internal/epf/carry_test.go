package epf_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/verify"
)

// countStats is st without its wall times, its pool and shard layout, and the
// two counters that say how the bound's terms were obtained (solved or
// carried) — what a warm solve with carried terms must share with one that
// solves every block, at any worker × shard combination.
func countStats(st epf.Stats) epf.Stats {
	st.InitTime, st.LPTime, st.RoundTime, st.LBTime, st.PolishTime, st.ReduceTime = 0, 0, 0, 0, 0, 0
	st.Workers, st.Shards, st.ScratchAllocs, st.ScratchReuses = 0, 0, 0, 0
	st.LBBlockSolves, st.LBTermsReused = 0, 0
	return st
}

// sameSolveBits reports the first difference between two results of the same
// solve, "" when they are the same bits: bound, duals, objective, passes,
// every block of the solution, the counted stats and the exported terms.
func sameSolveBits(a, b *epf.Result) string {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case !bits(a.LowerBound, b.LowerBound) || !bits(a.Objective, b.Objective) || a.Passes != b.Passes:
		return fmt.Sprintf("bound %v objective %v passes %d vs %v %v %d", a.LowerBound, a.Objective, a.Passes, b.LowerBound, b.Objective, b.Passes)
	case !slices.EqualFunc(a.RowDuals, b.RowDuals, bits):
		return "row duals differ"
	case countStats(a.Stats) != countStats(b.Stats):
		return fmt.Sprintf("stats %+v vs %+v", countStats(a.Stats), countStats(b.Stats))
	case !reflect.DeepEqual(a.Warm.Bound, b.Warm.Bound):
		return "exported bound terms differ"
	}
	for vi := range a.Sol.Videos {
		pa, pb := &a.Sol.Videos[vi], &b.Sol.Videos[vi]
		if !slices.Equal(pa.Open, pb.Open) || !slices.EqualFunc(pa.Assign, pb.Assign, slices.Equal[[]mip.Frac]) {
			return fmt.Sprintf("video %d's block differs", vi)
		}
	}
	return ""
}

// The exported terms are the ones the reported bound was summed from: in
// video order (one reduction leaf below 2048 videos), minus λ·b row by row,
// they give Result.LowerBound bit for bit. Cold solves end on duals a scale
// search or a polish round set, at ε = 1 % after dozens of each (seeds 5 and
// 6 end on a search whose winner was not the last multiplier evaluated); the
// warm re-solves of them end on the carried duals, whose terms the seed took
// from the state, or on duals of their own.
func TestExportedTermsSumToTheBound(t *testing.T) {
	check := func(name string, inst *mip.Instance, res *epf.Result) {
		t.Helper()
		b := res.Warm.Bound
		if b == nil || len(b.Term) != len(inst.Demands) || !slices.Equal(b.Duals, res.RowDuals) {
			t.Fatalf("%s: no terms at the exported duals", name)
		}
		var lr float64
		for _, term := range b.Term {
			lr += term
		}
		n, L := inst.NumVHOs(), inst.G.NumLinks()
		for r, q := range b.Duals {
			if r < n {
				lr -= q * inst.DiskGB[r]
			} else {
				lr -= q * inst.LinkCapMbps[(r-n)%L]
			}
		}
		if math.Float64bits(lr) != math.Float64bits(res.LowerBound) {
			t.Errorf("%s: terms sum to %v, bound %v", name, lr, res.LowerBound)
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		inst, err := verify.RandomInstance(seed, boundShape)
		if err != nil {
			t.Fatal(err)
		}
		opts := epf.Options{Seed: seed, MaxPasses: 300, Epsilon: 0.01}
		cold, err := epf.SolveInteger(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d cold", seed), inst, cold)
		scaleDemand(t, inst, int(seed), 1.5)
		opts.Warm = cold.Warm
		warm, err := epf.SolveInteger(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("seed %d warm", seed), inst, warm)
	}
}

// rebuiltWithout builds inst again from its own demand rows, minus video
// index drop: every later video moves down one position.
func rebuiltWithout(t *testing.T, inst *mip.Instance, drop int) *mip.Instance {
	t.Helper()
	var demands []mip.VideoDemand
	for vi := range inst.Demands {
		if vi == drop {
			continue
		}
		d := &inst.Demands[vi]
		conc := make([][]float64, inst.Slices)
		for s := range conc {
			conc[s] = make([]float64, len(d.Js))
		}
		for k := range d.Js {
			ts, vs := d.ConcNZ(k)
			for x, s := range ts {
				conc[s][k] = vs[x]
			}
		}
		demands = append(demands, mip.VideoDemand{
			Video: d.Video, SizeGB: d.SizeGB, RateMbps: d.RateMbps,
			Js: slices.Clone(d.Js), Agg: slices.Clone(d.Agg), Conc: conc,
		})
	}
	out, err := mip.NewInstance(inst.G, inst.DiskGB, inst.LinkCapMbps, inst.Slices, demands)
	if err != nil {
		t.Fatal(err)
	}
	out.Alpha, out.Beta = inst.Alpha, inst.Beta
	return out
}

// A warm re-solve that takes unchanged videos' bound terms from the carried
// state is the same solve, bit for bit, as one handed the same state without
// them (every block solved): bound, duals, objective, placement, counts and
// the terms it exports, at every worker × shard combination. Each edit below
// must cost exactly the terms whose inputs it touched — one changed
// aggregate, one changed concurrency value, a new or evicted video, an origin
// under the update objective — and an instance-wide edit (Alpha, one dual)
// or a truncated term array the terms it voids; an origin edit without the
// update objective costs nothing, since no term reads it.
func TestCarriedBoundTermsSameBits(t *testing.T) {
	const videos = 120
	opts := epf.Options{Seed: 1, MaxPasses: 300, Epsilon: 0.05}
	fresh := func(updateWeight float64) *mip.Instance {
		inst, err := verify.RandomInstance(1, boundShape)
		if err != nil {
			t.Fatal(err)
		}
		if updateWeight > 0 {
			inst.UpdateWeight = updateWeight
			inst.Origin = make([]int32, videos)
			for vi := range inst.Origin {
				inst.Origin[vi] = int32(vi % boundShape.Nodes)
			}
		}
		return inst
	}
	prevs := map[float64]*epf.Result{}
	for _, uw := range []float64{0, 0.05} {
		prev, err := epf.SolveInteger(fresh(uw), opts)
		if err != nil {
			t.Fatal(err)
		}
		if prev.Warm.Bound == nil || len(prev.Warm.Bound.Term) != videos {
			t.Fatalf("update weight %v: the cold solve exported no terms", uw)
		}
		prevs[uw] = prev
	}

	for _, tc := range []struct {
		name         string
		updateWeight float64
		edit         func(inst *mip.Instance) *mip.Instance
		warm         func(w epf.WarmState) *epf.WarmState
		reused       int
	}{
		{name: "unchanged", reused: videos},
		{name: "one aggregate", reused: videos - 1, edit: func(inst *mip.Instance) *mip.Instance {
			patchDemand(t, inst, 5, func(agg []float64, _ [][]float64) { agg[0] += 1 })
			return inst
		}},
		{name: "one concurrency value", reused: videos - 1, edit: func(inst *mip.Instance) *mip.Instance {
			patchDemand(t, inst, 5, func(_ []float64, conc [][]float64) { conc[1][0]++ })
			return inst
		}},
		{name: "new video ID", reused: videos - 1, edit: func(inst *mip.Instance) *mip.Instance {
			inst.Demands[9].Video = 10 * videos
			return inst
		}},
		{name: "evicted video", reused: videos - 1, edit: func(inst *mip.Instance) *mip.Instance {
			return rebuiltWithout(t, inst, 4)
		}},
		{name: "origin, update weight", updateWeight: 0.05, reused: videos - 1, edit: func(inst *mip.Instance) *mip.Instance {
			inst.Origin[7] = (inst.Origin[7] + 1) % int32(boundShape.Nodes)
			return inst
		}},
		{name: "origin, no update weight", reused: videos, edit: func(inst *mip.Instance) *mip.Instance {
			inst.Origin = make([]int32, videos)
			inst.Origin[7] = 3
			return inst
		}},
		{name: "alpha", reused: 0, edit: func(inst *mip.Instance) *mip.Instance {
			inst.Alpha = 1.25
			return inst
		}},
		{name: "one dual", reused: 0, warm: func(w epf.WarmState) *epf.WarmState {
			w.RowDuals = slices.Clone(w.RowDuals)
			w.RowDuals[0] *= 1.5
			return &w
		}},
		{name: "truncated terms", reused: videos / 2, warm: func(w epf.WarmState) *epf.WarmState {
			b := *w.Bound
			b.Term = b.Term[:videos/2]
			w.Bound = &b
			return &w
		}},
	} {
		prev := prevs[tc.updateWeight]
		inst := fresh(tc.updateWeight)
		if tc.edit != nil {
			inst = tc.edit(inst)
		}
		w := prev.Warm
		if tc.warm != nil {
			w = tc.warm(*w)
		}
		stripped := *w
		stripped.Bound = nil
		o := opts
		o.Warm = &stripped
		want, err := epf.SolveInteger(inst, o)
		if err != nil {
			t.Fatal(err)
		}
		if want.Stats.LBTermsReused != 0 {
			t.Fatalf("%s: a state without terms reused %d", tc.name, want.Stats.LBTermsReused)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, shards := range []int{1, 3} {
				o.Workers, o.Shards, o.Warm = workers, shards, w
				got, err := epf.SolveInteger(inst, o)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s, workers=%d shards=%d", tc.name, workers, shards)
				if diff := sameSolveBits(got, want); diff != "" {
					t.Errorf("%s: carried terms change the solve: %s", name, diff)
				}
				st := got.Stats
				if st.LBTermsReused != int64(tc.reused) || st.LBBlockSolves+st.LBTermsReused != want.Stats.LBBlockSolves {
					t.Errorf("%s: %d terms reused, %d block solves; want %d reused of the %d solves without them",
						name, st.LBTermsReused, st.LBBlockSolves, tc.reused, want.Stats.LBBlockSolves)
				}
			}
		}
	}
}
