package serve

import (
	"fmt"
	"math"
	"slices"

	"vodplace/internal/mip"
)

// DemandUpdate is one streamed demand delta (POST /demand): Add requests
// for Video at office VHO over the placement horizon. Negative adds decay
// demand; the state clamps at zero (and saturates at maxDemandCell, which
// also bounds |Add|). Concurrency rows scale with the
// aggregate through the state's per-slice peak fractions, so an update
// shifts both the storage objective and the link constraints.
type DemandUpdate struct {
	Video int     `json:"video"`
	VHO   int     `json:"vho"`
	Add   float64 `json:"add"`
}

// demandRow is the canonical mutable demand for one video, sized by the
// offices that have held demand for it: js lists them ascending, and cells
// holds 1+T values per office, office-major — the aggregate, then each
// slice's peak concurrency. Rows never shrink: an office whose cells decay
// to zero stays in js, and fillStaging's keep-filter drops it. The server
// mutates rows under its lock, and patchInstance copies the dirty ones into
// the live instance, so instances never alias state.
type demandRow struct {
	video    int
	sizeGB   float64
	rateMbps float64
	js       []int32
	cells    []float64 // [k*(1+T)]: aggregate, then conc[0..T) of office js[k]
}

// cellsAt returns office j's 1+T cells (w = 1+T), first inserting zeroed
// ones at j's place in js when the row holds none for j.
func (r *demandRow) cellsAt(j, w int) []float64 {
	k, found := slices.BinarySearch(r.js, int32(j))
	if !found {
		r.js = slices.Insert(r.js, k, int32(j))
		r.cells = slices.Insert(r.cells, k*w, make([]float64, w)...)
	}
	return r.cells[k*w : (k+1)*w]
}

// demandState is the control plane's demand model: the videos of the
// initial instance with their live aggregate/concurrency numbers.
type demandState struct {
	rows   []demandRow
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

// maxDemandCell bounds what one demand cell — the aggregate requests, or one
// slice's peak concurrency, of a (video, office) pair — can hold, and so what
// one update can add. It sits far above any real demand and far enough below
// MaxFloat64 that every sum and product the solver forms over cells stays
// finite: without it two accepted adds of 1e308 sum a cell to +Inf, which the
// next re-solve prices as NaN. validate rejects a larger |add|; apply
// saturates the accumulated cells here.
const maxDemandCell = 1e12

// defaultConcFrac is the per-slice concurrency/aggregate ratio used when
// the seed instance carries no demand mass to derive one from.
const defaultConcFrac = 0.05

// stateFromInstance copies a built instance's demands into mutable state,
// one row per video holding the instance's own CSR offices.
func stateFromInstance(inst *mip.Instance) *demandState {
	w := 1 + inst.Slices
	st := &demandState{
		rows:     make([]demandRow, len(inst.Demands)),
		byID:     make(map[int]int, len(inst.Demands)),
		n:        inst.NumVHOs(),
		slices:   inst.Slices,
		concFrac: make([]float64, inst.Slices),
		dirty:    make(map[int]struct{}),
	}
	var totalAgg float64
	totalConc := make([]float64, inst.Slices)
	for vi := range inst.Demands {
		d := &inst.Demands[vi]
		row := demandRow{
			video:    d.Video,
			sizeGB:   d.SizeGB,
			rateMbps: d.RateMbps,
			js:       slices.Clone(d.Js),
			cells:    make([]float64, len(d.Js)*w),
		}
		for k := range d.Js {
			c := row.cells[k*w : (k+1)*w]
			c[0] = d.Agg[k]
			totalAgg += d.Agg[k]
			ts, vs := d.ConcNZ(k)
			for x, t := range ts {
				c[1+t] = vs[x]
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

// validate checks a batch of updates against the state without applying
// anything, so a bad entry rejects the whole batch atomically.
func (st *demandState) validate(us []DemandUpdate) error {
	for i, u := range us {
		if _, ok := st.byID[u.Video]; !ok {
			return fmt.Errorf("entry %d: unknown video %d", i, u.Video)
		}
		if u.VHO < 0 || u.VHO >= st.n {
			return fmt.Errorf("entry %d: vho %d out of range [0,%d)", i, u.VHO, st.n)
		}
		if math.IsNaN(u.Add) || math.Abs(u.Add) > maxDemandCell {
			return fmt.Errorf("entry %d: add is not a number within ±%g", i, maxDemandCell)
		}
	}
	return nil
}

// apply folds a validated batch into the state and marks the touched rows
// dirty for the next delta resolve.
func (st *demandState) apply(us []DemandUpdate) {
	for _, u := range us {
		ri := st.byID[u.Video]
		st.dirty[ri] = struct{}{}
		c := st.rows[ri].cellsAt(u.VHO, 1+st.slices)
		prev := c[0]
		c[0] = clampCell(prev + u.Add)
		st.drift += math.Abs(c[0] - prev)
		for t, f := range st.concFrac {
			c[1+t] = clampCell(c[1+t] + u.Add*f)
		}
	}
}

// clampCell keeps an accumulated demand cell in [0, maxDemandCell].
func clampCell(v float64) float64 {
	return max(0, min(v, maxDemandCell))
}

// newStaging returns a reusable staging demand sized for this state's
// office/slice dimensions.
func (st *demandState) newStaging() mip.VideoDemand {
	staging := mip.VideoDemand{
		Js:   make([]int32, 0, st.n),
		Agg:  make([]float64, 0, st.n),
		Conc: make([][]float64, st.slices),
	}
	for t := range staging.Conc {
		staging.Conc[t] = make([]float64, 0, st.n)
	}
	return staging
}

// fillStaging loads row vi into the reused staging demand: the identity
// fields plus the row's offices under the keep-filter (an office appears iff
// its aggregate or any slice concurrency is positive). patchInstance
// extracts every row through this one helper, so a patched instance carries
// exactly the rows a fresh InstanceBuilder would be fed.
func (st *demandState) fillStaging(vi int, staging *mip.VideoDemand) {
	row := &st.rows[vi]
	w := 1 + st.slices
	staging.Video = row.video
	staging.SizeGB = row.sizeGB
	staging.RateMbps = row.rateMbps
	staging.Js = staging.Js[:0]
	staging.Agg = staging.Agg[:0]
	for t := range staging.Conc {
		staging.Conc[t] = staging.Conc[t][:0]
	}
	for k, j := range row.js {
		c := row.cells[k*w : (k+1)*w]
		keep := false
		for _, v := range c {
			keep = keep || v > 0
		}
		if !keep {
			continue
		}
		staging.Js = append(staging.Js, j)
		staging.Agg = append(staging.Agg, c[0])
		for t := range staging.Conc {
			staging.Conc[t] = append(staging.Conc[t], c[1+t])
		}
	}
}

// drainDirty returns the row indices apply has touched since the previous
// drain, ascending, and resets the set. Rows stream into instances in index
// order, so a row index is also the video's instance index in every
// instance built from (or patched against) this state.
func (st *demandState) drainDirty() []int {
	if len(st.dirty) == 0 {
		return nil
	}
	out := make([]int, 0, len(st.dirty))
	for vi := range st.dirty {
		out = append(out, vi)
	}
	slices.Sort(out)
	clear(st.dirty)
	return out
}

// patchInstance rewrites the dirty videos' demand rows of inst in place
// through mip.ApplyDemandDelta — the delta resolve path's alternative to
// re-streaming the whole catalog. inst must have been built from this state
// (row order == video index order); rows are extracted through fillStaging,
// so a patched instance is bit-identical to one an InstanceBuilder streams
// fresh from the state. A row the instance refuses is left as it
// was (ApplyDemandDelta changes nothing on error): it and the rows after it
// go back on the dirty list for the next attempt.
func (st *demandState) patchInstance(inst *mip.Instance, dirty []int) error {
	staging := st.newStaging()
	for k, vi := range dirty {
		st.fillStaging(vi, &staging)
		if err := inst.ApplyDemandDelta(vi, staging.Js, staging.Agg, staging.Conc); err != nil {
			for _, un := range dirty[k:] {
				st.dirty[un] = struct{}{}
			}
			return fmt.Errorf("video %d: %w", st.rows[vi].video, err)
		}
	}
	return nil
}
