package serve

// The dense demand state of commit e232960, kept verbatim as the oracle the
// sparse rows in state.go are proven against (TestStateMatchesDense,
// FuzzStateMatchesDense): every video holds a dense agg[n] and conc[T][n],
// apply indexes them directly, and fillStaging scans all n offices.
// drainDirty comes along so the dirty sets drain the same way.
//
// The only edits are the names: demandRow → denseRow, demandState →
// denseState, stateFromInstance → denseStateFromInstance.

import (
	"math"
	"sort"

	"vodplace/internal/mip"
)

// denseRow is the canonical mutable demand for one video: dense per-office
// aggregates and per-(slice, office) peak concurrency. The server mutates
// rows under its lock and streams them through a fresh InstanceBuilder
// (which copies) on every re-solve, so built instances never alias state.
type denseRow struct {
	video    int
	sizeGB   float64
	rateMbps float64
	agg      []float64   // [office]
	conc     [][]float64 // [slice][office]
}

// denseState is the control plane's demand model: the videos of the
// initial instance with their live aggregate/concurrency numbers.
type denseState struct {
	rows   []denseRow
	byID   map[int]int // library video id -> rows index
	n      int         // offices
	slices int
	// concFrac[t] is the peak-concurrency mass added per unit of aggregate
	// demand by an update, derived from the seed instance's global
	// conc/agg ratio so streamed updates look like the existing mix.
	concFrac []float64
	// drift is the L1 aggregate-demand distance accumulated by apply since
	// the last state a swapped-in solve was built from: the staleness signal
	// behind the serve.demand_drift gauge. The resolver subtracts the mass a
	// successful swap covered (see resolveOnce) rather than zeroing, so
	// updates that land mid-solve stay counted.
	drift float64
	// dirty is the set of row indices apply has touched since the resolver
	// last drained it — the delta resolve path's work list. Tracked inside
	// apply (the single mutation point) so every caller, the HTTP ingest
	// path and tests driving apply directly alike, feeds it.
	dirty map[int]struct{}
}

// denseStateFromInstance copies a built instance's demands into mutable dense
// state. The instance keeps only the CSR concurrency view, so the dense
// rows are reconstructed from it.
func denseStateFromInstance(inst *mip.Instance) *denseState {
	n := inst.NumVHOs()
	st := &denseState{
		rows:     make([]denseRow, len(inst.Demands)),
		byID:     make(map[int]int, len(inst.Demands)),
		n:        n,
		slices:   inst.Slices,
		concFrac: make([]float64, inst.Slices),
		dirty:    make(map[int]struct{}),
	}
	var totalAgg float64
	totalConc := make([]float64, inst.Slices)
	for vi := range inst.Demands {
		d := &inst.Demands[vi]
		row := denseRow{
			video:    d.Video,
			sizeGB:   d.SizeGB,
			rateMbps: d.RateMbps,
			agg:      make([]float64, n),
			conc:     make([][]float64, inst.Slices),
		}
		for t := range row.conc {
			row.conc[t] = make([]float64, n)
		}
		for k, j := range d.Js {
			row.agg[j] = d.Agg[k]
			totalAgg += d.Agg[k]
			ts, vs := d.ConcNZ(k)
			for x, t := range ts {
				row.conc[t][j] = vs[x]
				totalConc[t] += vs[x]
			}
		}
		st.rows[vi] = row
		st.byID[d.Video] = vi
	}
	for t := range st.concFrac {
		if totalAgg > 0 {
			st.concFrac[t] = totalConc[t] / totalAgg
		} else {
			st.concFrac[t] = defaultConcFrac
		}
	}
	return st
}

// apply folds a validated batch into the state and marks the touched rows
// dirty for the next delta resolve.
func (st *denseState) apply(us []DemandUpdate) {
	for _, u := range us {
		ri := st.byID[u.Video]
		st.dirty[ri] = struct{}{}
		row := &st.rows[ri]
		prev := row.agg[u.VHO]
		row.agg[u.VHO] = clampCell(prev + u.Add)
		st.drift += math.Abs(row.agg[u.VHO] - prev)
		for t := range row.conc {
			row.conc[t][u.VHO] = clampCell(row.conc[t][u.VHO] + u.Add*st.concFrac[t])
		}
	}
}

// fillStaging loads row vi into the reused staging demand: the identity
// fields plus the sparse office profile under the keep-filter (an office
// appears iff its aggregate or any slice concurrency is positive). Both
// construction routes — the full-catalog rebuild in instance and the
// dirty-row patch in patchInstance — extract rows through this one helper,
// so they cannot disagree about which offices a row keeps.
func (st *denseState) fillStaging(vi int, staging *mip.VideoDemand) {
	row := &st.rows[vi]
	staging.Video = row.video
	staging.SizeGB = row.sizeGB
	staging.RateMbps = row.rateMbps
	staging.Js = staging.Js[:0]
	staging.Agg = staging.Agg[:0]
	for t := range staging.Conc {
		staging.Conc[t] = staging.Conc[t][:0]
	}
	for j := 0; j < st.n; j++ {
		keep := row.agg[j] > 0
		for t := 0; !keep && t < st.slices; t++ {
			keep = row.conc[t][j] > 0
		}
		if !keep {
			continue
		}
		staging.Js = append(staging.Js, int32(j))
		staging.Agg = append(staging.Agg, row.agg[j])
		for t := range staging.Conc {
			staging.Conc[t] = append(staging.Conc[t], row.conc[t][j])
		}
	}
}

// drainDirty returns the row indices apply has touched since the previous
// drain, ascending, and resets the set. Rows stream into instances in index
// order, so a row index is also the video's instance index in every
// instance built from (or patched against) this state.
func (st *denseState) drainDirty() []int {
	if len(st.dirty) == 0 {
		return nil
	}
	out := make([]int, 0, len(st.dirty))
	for vi := range st.dirty {
		out = append(out, vi)
	}
	sort.Ints(out)
	clear(st.dirty)
	return out
}
