package verify

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/topology"
)

// skewedInstance builds a catalog whose block costs are heavy-tailed the way
// the serving catalogs' are: every tenth video is demanded at nearly every
// office, the rest at one or two. When bumped is set, videos 3, 30 and 77 —
// one heavy block, two light ones — carry 2.5× their demand, the shape of a
// re-solve after a demand batch.
func skewedInstance(t *testing.T, bumped bool) *mip.Instance {
	t.Helper()
	const nodes, videos, slices = 12, 160, 2
	rng := rand.New(rand.NewSource(11))
	g := topology.Random(nodes, edgeDensity, 11)
	demands := make([]mip.VideoDemand, videos)
	var totalSize float64
	for v := range demands {
		size := []float64{0.5, 1, 2}[rng.Intn(3)]
		totalSize += size
		d := mip.VideoDemand{Video: v, SizeGB: size, RateMbps: 2}
		f := 1.0
		if bumped && (v == 3 || v == 30 || v == 77) {
			f = 2.5
		}
		heavy := v%10 == 0
		first, second := rng.Intn(nodes), rng.Intn(nodes)
		for j := 0; j < nodes; j++ {
			if heavy && rng.Float64() < 0.9 || !heavy && (j == first || j == second) {
				d.Js = append(d.Js, int32(j))
				d.Agg = append(d.Agg, f*(1+rng.Float64()*10))
			}
		}
		d.Conc = make([][]float64, slices)
		for s := range d.Conc {
			d.Conc[s] = make([]float64, len(d.Js))
			for k, a := range d.Agg {
				d.Conc[s][k] = math.Ceil(a * (0.5 + 0.5*math.Cos(float64(s+v)*math.Pi/slices)) / 3)
			}
		}
		demands[v] = d
	}
	disk := make([]float64, nodes)
	for i := range disk {
		disk[i] = totalSize * 2 / nodes
	}
	caps := make([]float64, g.NumLinks())
	for l := range caps {
		caps[l] = 60
	}
	inst, err := mip.NewInstance(g, disk, caps, slices, demands)
	if err != nil {
		t.Fatal(err)
	}
	inst.Beta = instanceBeta
	return inst
}

// skewedRun is one worker count's cold solve, warm re-solve of the bumped
// catalog, and the auditor's block bounds for each.
type skewedRun struct {
	cold, warm           *epf.Result
	coldBound, warmBound []float64
	warmReused           int
}

// workCounts is st with the wall times and the pool size zeroed: what is left
// counts work, and must not depend on the schedule.
func workCounts(st epf.Stats) epf.Stats {
	st.Workers = 0
	st.InitTime, st.LPTime, st.RoundTime, st.LBTime, st.PolishTime, st.ReduceTime = 0, 0, 0, 0, 0, 0
	return st
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// On a catalog whose blocks differ in cost by an order of magnitude, the
// pool's claimed ranges land differently at every worker count and every run;
// the solves — cold and warm — and the certificate's block bounds must not
// move by a bit: placement rows, bound, duals, passes and every work count.
func TestSkewedBlocksWorkerInvariance(t *testing.T) {
	run := func(workers int) skewedRun {
		opts := epf.Options{Seed: 5, MaxPasses: 60, Epsilon: 0.01, Workers: workers}
		var r skewedRun
		var err error
		if r.cold, err = epf.SolveInteger(skewedInstance(t, false), opts); err != nil {
			t.Fatal(err)
		}
		opts.Warm = r.cold.Warm
		warmInst := skewedInstance(t, true)
		if r.warm, err = epf.SolveInteger(warmInst, opts); err != nil {
			t.Fatal(err)
		}
		a := Auditor{workers: workers}
		if _, _, err := a.certify(r.cold.Sol.Inst, r.cold.RowDuals, r.cold.LowerBound); err != nil {
			t.Fatal(err)
		}
		r.coldBound = a.bound
		if _, r.warmReused, err = a.certify(warmInst, r.warm.RowDuals, r.warm.LowerBound); err != nil {
			t.Fatal(err)
		}
		r.warmBound = a.bound
		return r
	}
	base := run(1)
	if base.warm.Stats.LBTermsReused == 0 || base.warm.Stats.LBBlockSolves == 0 {
		t.Fatalf("warm re-solve reused %d bound terms and solved %d blocks; want both nonzero",
			base.warm.Stats.LBTermsReused, base.warm.Stats.LBBlockSolves)
	}
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		for _, leg := range []struct {
			name      string
			got, want *epf.Result
		}{{"cold", got.cold, base.cold}, {"warm", got.warm, base.warm}} {
			g, b := leg.got, leg.want
			if !reflect.DeepEqual(g.Sol.Videos, b.Sol.Videos) {
				t.Errorf("%s workers=%d: placement rows differ from Workers 1", leg.name, workers)
			}
			if math.Float64bits(g.LowerBound) != math.Float64bits(b.LowerBound) || g.Passes != b.Passes {
				t.Errorf("%s workers=%d: bound %.17g in %d passes, Workers 1 %.17g in %d",
					leg.name, workers, g.LowerBound, g.Passes, b.LowerBound, b.Passes)
			}
			if !sameBits(g.RowDuals, b.RowDuals) {
				t.Errorf("%s workers=%d: row duals differ from Workers 1", leg.name, workers)
			}
			if gs, bs := workCounts(g.Stats), workCounts(b.Stats); gs != bs {
				t.Errorf("%s workers=%d: work counts\n%+v\nWorkers 1\n%+v", leg.name, workers, gs, bs)
			}
		}
		if !sameBits(got.coldBound, base.coldBound) || !sameBits(got.warmBound, base.warmBound) || got.warmReused != base.warmReused {
			t.Errorf("workers=%d: certificate block bounds (or %d reused) differ from Workers 1 (%d reused)",
				workers, got.warmReused, base.warmReused)
		}
	}
}
