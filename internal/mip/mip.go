// Package mip defines the content-placement optimization model of §V: the
// instance (inputs of Table I), placement solutions (decision variables
// y_i^m and x_ij^m), and exact evaluation of the objective (2) and the
// constraints (3)-(8).
//
// Solvers live elsewhere: internal/epf implements the Lagrangian /
// exponential-potential-function LP solver, internal/round the integer
// rounding pass, and internal/simplex the general-purpose LP baseline.
package mip

import (
	"math"
	"slices"

	"vodplace/internal/topology"
)

// Tolerance constants shared across the solver stack. Every layer that asks
// "is this integral / feasible / negligible" uses these values, collected
// here so the answers agree between the solvers, the verification layer and
// the tests.
const (
	// IntegralTol is the integrality tolerance: a y value within IntegralTol
	// of 0 or 1 counts as integral (Solution.IsIntegral, the epf rounding
	// pass's fractional-video detection).
	IntegralTol = 1e-6
	// FeasTol is the absolute slack allowed on the exact per-video
	// constraints — request conservation Σ_i x_ij^m = 1 and availability
	// x_ij^m ≤ y_i^m — which solvers maintain exactly up to floating-point
	// error. Coupling (disk/link) rows are instead judged against the
	// solver's configured ε band, not FeasTol.
	FeasTol = 1e-6
	// SparseTol is the magnitude below which a fractional entry is treated
	// as zero when extracting or pruning sparse solutions (e.g. the simplex
	// extraction path).
	SparseTol = 1e-9
)

// VideoDemand is the demand side of one video m: the offices that request it,
// the aggregate request counts a_j^m over the modeling period, and the
// concurrent-stream counts f_j^m(t) for each enforced time slice t.
type VideoDemand struct {
	// Video is the library id of the video (used for reporting; the solver
	// itself treats videos positionally).
	Video int
	// SizeGB is s^m, the storage footprint.
	SizeGB float64
	// RateMbps is r^m, the streaming rate.
	RateMbps float64
	// Js lists the offices with nonzero demand, ascending.
	Js []int32
	// Agg[k] is a_j^m for j = Js[k].
	Agg []float64
	// Conc[t][k] is f_j^m(t) for j = Js[k] and time slice t. Conc is an
	// input-side staging field: construction (NewInstance, InstanceBuilder.Add)
	// reads it once to build the CSR view below and then drops it, so demands
	// of a built instance carry only their nonzeros — readers use ConcNZ or
	// ConcAt. Hand-built instances that skip construction may keep Conc dense;
	// the evaluators in this package fall back to it when no CSR exists.
	Conc [][]float64

	// Sparse view of Conc in CSR form, built at construction: for demand
	// index k, the slices t with f_j^m(t) ≠ 0 are concT[concOff[k]:concOff[k+1]]
	// (ascending) with matching values in concV. Most videos are active in
	// only a few enforced slices, so the solver's hot kernels iterate these
	// instead of scanning a dense matrix.
	concOff []int32
	concT   []int32
	concV   []float64
}

// ConcNZ returns the nonzero time slices for demand index k (ascending) and
// their concurrency values, as parallel slices. Valid only on demands of a
// constructed Instance (NewInstance or InstanceBuilder); callers must not
// modify the results.
func (d *VideoDemand) ConcNZ(k int) (slices []int32, values []float64) {
	lo, hi := d.concOff[k], d.concOff[k+1]
	return d.concT[lo:hi:hi], d.concV[lo:hi:hi]
}

// ConcAt returns f_j^m(t) for demand index k, scanning the CSR row (falling
// back to the dense staging on hand-built demands without one). Per-column
// nonzero counts are tiny — |T| is 2 in the deployed configuration — so the
// linear scan is the right trade for consumers that genuinely need random
// access, like the dense-simplex constraint builder.
func (d *VideoDemand) ConcAt(t, k int) float64 {
	if d.concOff == nil {
		return d.Conc[t][k]
	}
	ts, vs := d.ConcNZ(k)
	for i, tt := range ts {
		if int(tt) == t {
			return vs[i]
		}
		if int(tt) > t {
			break
		}
	}
	return 0
}

// NNZ returns the number of stored concurrency nonzeros across all of the
// demand's offices and slices.
func (d *VideoDemand) NNZ() int { return len(d.concT) }

// buildConcCSR fills the sparse concurrency view from Conc.
func (d *VideoDemand) buildConcCSR() {
	K := len(d.Js)
	d.concOff = make([]int32, K+1)
	nz := 0
	for _, row := range d.Conc {
		for _, f := range row {
			if f != 0 {
				nz++
			}
		}
	}
	d.concT = make([]int32, 0, nz)
	d.concV = make([]float64, 0, nz)
	for k := 0; k < K; k++ {
		for t, row := range d.Conc {
			if f := row[k]; f != 0 {
				d.concT = append(d.concT, int32(t))
				d.concV = append(d.concV, f)
			}
		}
		d.concOff[k+1] = int32(len(d.concT))
	}
}

// TotalDemandGB returns s^m · Σ_j a_j^m, the total gigabytes requested.
func (d *VideoDemand) TotalDemandGB() float64 {
	var a float64
	for _, v := range d.Agg {
		a += v
	}
	return a * d.SizeGB
}

// Instance is a complete placement problem (Table I).
type Instance struct {
	// G provides V, L and the fixed paths P_ij.
	G *topology.Graph
	// DiskGB[i] is D_i.
	DiskGB []float64
	// LinkCapMbps[l] is B_l for directed link l.
	LinkCapMbps []float64
	// Slices is |T|, the number of enforced time slices.
	Slices int
	// Demands holds one entry per video in the instance. Videos with no
	// demand still require at least one stored copy (constraints (3)+(4)).
	Demands []VideoDemand
	// Shards partitions Demands into contiguous video ranges, with their
	// nonzero and size tallies. Instances from NewInstance carry a single
	// shard spanning the whole catalog; InstanceBuilder seals one shard per
	// shardSize videos. The layout is accounting only: the solver does not
	// read it, and it never changes numeric output.
	Shards []InstanceShard
	// Alpha and Beta are the cost coefficients of (1): c_ij = α|P_ij| + β.
	Alpha, Beta float64

	// UpdateWeight is w in objective (11); when positive, placing a copy of
	// video m at office i adds w·s^m·c(origin(m), i) to the objective.
	UpdateWeight float64
	// Origin[v] is the office holding video v before this placement round
	// (nearest copy), used with UpdateWeight. Empty means office 0. A
	// negative entry marks a video with no prior copy (e.g. a new release):
	// its placement incurs no migration cost anywhere, rather than being
	// charged a spurious transfer away from office 0.
	Origin []int32

	hops []int16 // cached hop counts, row-major [i*n+j]
	// hopOrder[j*n:(j+1)*n] lists the offices by hop count from destination
	// j, ties by index: the ascending order of every cost row Cost(·, j).
	hopOrder []int32

	// generation counts the in-place demand patches applied through
	// ApplyDemandDelta since construction (0 on a freshly built instance).
	// Patched rows get fresh backing arrays (copy-on-write), so slices read
	// from a demand before a patch stay valid; the counter is how a caller
	// holding derived state (route tables, warm starts) detects that the
	// instance value moved on. Single-writer: patches and the counter are
	// not synchronized, so all mutation must come from one goroutine.
	generation uint64

	// costT is the dense transfer-cost matrix in j-major (destination-major)
	// layout: costT[j*n+i] = c_ij = α|P_ij| + β. Block pricing walks a fixed
	// destination j over all sources i, so the column layout keeps that scan
	// contiguous. The table is lazily (re)built by CostColumns against the
	// (Alpha, Beta) pair it was computed from, because tests and the verify
	// harness mutate Alpha/Beta after NewInstance.
	costT               []float64
	costAlpha, costBeta float64
}

// NewInstance validates and finalizes an instance. The graph must be built;
// capacities must be positive; demand entries must be internally consistent.
//
// NewInstance is a thin wrapper over InstanceBuilder: it streams the given
// demands through the same validation and CSR conversion (adopting each
// entry's Js/Agg slices rather than copying them) and seals a single shard.
// The dense Conc staging rows are not retained on the result.
func NewInstance(g *topology.Graph, diskGB, linkCapMbps []float64, slices int, demands []VideoDemand) (*Instance, error) {
	b, err := NewInstanceBuilder(g, diskGB, linkCapMbps, slices, 0)
	if err != nil {
		return nil, err
	}
	b.demands = make([]VideoDemand, 0, len(demands))
	for vi := range demands {
		if err := b.add(&demands[vi], false); err != nil {
			return nil, err
		}
	}
	return b.Seal()
}

func (inst *Instance) cacheHops() {
	n := inst.G.NumNodes()
	inst.hops = make([]int16, n*n)
	for i := 0; i < n; i++ {
		row := inst.hops[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] = int16(inst.G.Hops(i, j))
		}
	}
	inst.hopOrder = make([]int32, n*n)
	for j := 0; j < n; j++ {
		o := inst.hopOrder[j*n : (j+1)*n]
		for i := range o {
			o[i] = int32(i)
		}
		slices.SortStableFunc(o, func(a, b int32) int {
			return int(inst.hops[int(a)*n+j]) - int(inst.hops[int(b)*n+j])
		})
	}
}

// HopOrder returns the offices ordered by hop count from destination office
// j, ties by index: a permutation of 0..n−1 along which Cost(i, j) =
// α·hops + β never decreases for α ≥ 0, so a block's assignment row for
// demand office j is ascending in it unless link-dual terms reorder it. It
// is built at seal time and shared: callers must not modify it.
func (inst *Instance) HopOrder(j int) []int32 {
	n := inst.G.NumNodes()
	return inst.hopOrder[j*n : (j+1)*n : (j+1)*n]
}

// CostColumns returns the dense j-major cost table: the returned slice has
// length n², with entry [j*n+i] equal to Cost(i, j), computed by the same
// expression so table lookups are bit-identical to direct calls. The table is
// rebuilt if Alpha or Beta changed since the last call. Not safe for
// concurrent mutation — callers obtain it once, serially, before fanning out
// (the epf solver does so in newSolver), and must not modify the result.
func (inst *Instance) CostColumns() []float64 {
	n := inst.G.NumNodes()
	if inst.costT != nil && inst.costAlpha == inst.Alpha && inst.costBeta == inst.Beta {
		return inst.costT
	}
	if inst.costT == nil {
		inst.costT = make([]float64, n*n)
	}
	for j := 0; j < n; j++ {
		col := inst.costT[j*n : (j+1)*n]
		for i := 0; i < n; i++ {
			col[i] = inst.Alpha*float64(inst.hops[i*n+j]) + inst.Beta
		}
	}
	inst.costAlpha, inst.costBeta = inst.Alpha, inst.Beta
	return inst.costT
}

// NumVHOs returns |V|.
func (inst *Instance) NumVHOs() int { return inst.G.NumNodes() }

// NumVideos returns |M|.
func (inst *Instance) NumVideos() int { return len(inst.Demands) }

// Cost returns c_ij = α|P_ij| + β.
func (inst *Instance) Cost(i, j int) float64 {
	return inst.Alpha*float64(inst.hops[i*inst.G.NumNodes()+j]) + inst.Beta
}

// Hops returns |P_ij| from the cached table.
func (inst *Instance) Hops(i, j int) int { return int(inst.hops[i*inst.G.NumNodes()+j]) }

// originOf returns the origin office for video index vi under the update-cost
// objective.
func (inst *Instance) originOf(vi int) int {
	if len(inst.Origin) == 0 {
		return 0
	}
	return int(inst.Origin[vi])
}

// PlacementCost returns the objective (11) term for storing video index vi
// at office i: w·s^m·c(origin, i). Zero when UpdateWeight is zero, and zero
// for videos with no prior copy (negative origin) — there is nothing to
// migrate, so the update term exempts them.
func (inst *Instance) PlacementCost(vi, i int) float64 {
	if inst.UpdateWeight == 0 {
		return 0
	}
	o := inst.originOf(vi)
	if o < 0 {
		return 0
	}
	return inst.UpdateWeight * inst.Demands[vi].SizeGB * inst.Cost(o, i)
}

// Origins returns the Origin vector objective (11) charges inst's placement
// against: for each video of inst, the lowest office holding a copy
// (y ≥ OpenY) of the same library video in the previous placement prev, or
// −1 when prev holds none (a new release, or a video prev dropped).
func Origins(inst *Instance, prev *Solution) []int32 {
	held := make(map[int]int32, len(prev.Videos))
	for pv := range prev.Videos {
		lowest := int32(-1)
		for _, f := range prev.Videos[pv].Open {
			if f.V >= OpenY && (lowest < 0 || f.I < lowest) {
				lowest = f.I
			}
		}
		if lowest >= 0 {
			held[prev.Inst.Demands[pv].Video] = lowest
		}
	}
	out := make([]int32, len(inst.Demands))
	for vi := range inst.Demands {
		out[vi] = -1
		if o, ok := held[inst.Demands[vi].Video]; ok {
			out[vi] = o
		}
	}
	return out
}

// Frac is one sparse coefficient: office I with value V.
type Frac struct {
	I int32
	V float64
}

// VideoPlacement is the solution restricted to one video: fractional (or
// integral) storage decisions and request assignments.
type VideoPlacement struct {
	// Open holds the nonzero y_i^m entries, ascending by office.
	Open []Frac
	// Assign[k] holds the nonzero x_ij^m for j = Js[k], ascending by office.
	Assign [][]Frac
}

// YAt returns y_i^m.
func (p *VideoPlacement) YAt(i int) float64 {
	for _, f := range p.Open {
		if int(f.I) == i {
			return f.V
		}
	}
	return 0
}

// Solution is a complete placement: one VideoPlacement per instance video.
type Solution struct {
	Inst   *Instance
	Videos []VideoPlacement
}

// NewSolution returns an empty (all-zero) solution shell for inst.
func NewSolution(inst *Instance) *Solution {
	s := &Solution{Inst: inst, Videos: make([]VideoPlacement, len(inst.Demands))}
	for vi := range s.Videos {
		s.Videos[vi].Assign = make([][]Frac, len(inst.Demands[vi].Js))
	}
	return s
}

// Objective returns the transfer-cost objective (2) plus, when UpdateWeight
// is set, the placement-transfer term of (11).
func (s *Solution) Objective() float64 {
	var total float64
	for vi := range s.Videos {
		d := &s.Inst.Demands[vi]
		p := &s.Videos[vi]
		for k, fr := range p.Assign {
			j := int(d.Js[k])
			coef := d.SizeGB * d.Agg[k]
			for _, f := range fr {
				total += coef * s.Inst.Cost(int(f.I), j) * f.V
			}
		}
		if s.Inst.UpdateWeight != 0 {
			for _, f := range p.Open {
				total += s.Inst.PlacementCost(vi, int(f.I)) * f.V
			}
		}
	}
	return total
}

// DiskUsage returns per-office storage use Σ_m s^m y_i^m in GB.
func (s *Solution) DiskUsage() []float64 {
	use := make([]float64, s.Inst.NumVHOs())
	for vi := range s.Videos {
		size := s.Inst.Demands[vi].SizeGB
		for _, f := range s.Videos[vi].Open {
			use[f.I] += size * f.V
		}
	}
	return use
}

// LinkUsage returns per-(link, slice) bandwidth use in Mb/s:
// Σ_m Σ_{i,j: l ∈ P_ij} r^m f_j^m(t) x_ij^m.
func (s *Solution) LinkUsage() [][]float64 {
	use := make([][]float64, s.Inst.Slices)
	for t := range use {
		use[t] = make([]float64, s.Inst.G.NumLinks())
	}
	if s.Inst.Slices == 0 {
		return use
	}
	for vi := range s.Videos {
		d := &s.Inst.Demands[vi]
		p := &s.Videos[vi]
		for k, fr := range p.Assign {
			j := int(d.Js[k])
			for _, f := range fr {
				if int(f.I) == j {
					continue
				}
				path := s.Inst.G.Path(int(f.I), j)
				if d.concOff != nil {
					// CSR rows visit the same nonzeros in the same ascending-t
					// order the dense loop did, so the accumulation is
					// bit-identical.
					ts, fv := d.ConcNZ(k)
					for i, tt := range ts {
						flow := d.RateMbps * fv[i] * f.V
						if flow == 0 {
							continue
						}
						for _, l := range path {
							use[int(tt)][l] += flow
						}
					}
					continue
				}
				for t := 0; t < s.Inst.Slices; t++ {
					flow := d.RateMbps * d.Conc[t][k] * f.V
					if flow == 0 {
						continue
					}
					for _, l := range path {
						use[t][l] += flow
					}
				}
			}
		}
	}
	return use
}

// Violation summarizes constraint violations of a solution.
type Violation struct {
	// Disk is the maximum relative disk overuse: max_i use_i/D_i − 1
	// (0 if all within capacity).
	Disk float64
	// Link is the maximum relative link overuse across slices.
	Link float64
	// Unserved is the maximum absolute deviation of Σ_i x_ij^m from 1.
	Unserved float64
	// XExceedsY is the maximum of x_ij^m − y_i^m over all entries.
	XExceedsY float64
}

// Max returns the largest violation component.
func (v Violation) Max() float64 {
	return math.Max(math.Max(v.Disk, v.Link), math.Max(v.Unserved, v.XExceedsY))
}

// Check computes all constraint violations.
func (s *Solution) Check() Violation {
	var out Violation
	disk := s.DiskUsage()
	for i, u := range disk {
		rel := u/s.Inst.DiskGB[i] - 1
		if rel > out.Disk {
			out.Disk = rel
		}
	}
	link := s.LinkUsage()
	for t := range link {
		for l, u := range link[t] {
			rel := u/s.Inst.LinkCapMbps[l] - 1
			if rel > out.Link {
				out.Link = rel
			}
		}
	}
	for vi := range s.Videos {
		d := &s.Inst.Demands[vi]
		p := &s.Videos[vi]
		y := make(map[int32]float64, len(p.Open))
		for _, f := range p.Open {
			y[f.I] = f.V
		}
		for k := range d.Js {
			var sum float64
			for _, f := range p.Assign[k] {
				sum += f.V
				if ex := f.V - y[f.I]; ex > out.XExceedsY {
					out.XExceedsY = ex
				}
			}
			if dev := math.Abs(sum - 1); dev > out.Unserved {
				out.Unserved = dev
			}
		}
		// Every video needs at least one (fractional unit of) copy.
		var ysum float64
		for _, f := range p.Open {
			ysum += f.V
		}
		if len(d.Js) == 0 {
			if dev := 1 - ysum; dev > out.Unserved {
				out.Unserved = dev
			}
		}
	}
	return out
}

// IsIntegral reports whether every y_i^m is 0 or 1 (within tol).
func (s *Solution) IsIntegral(tol float64) bool {
	for vi := range s.Videos {
		for _, f := range s.Videos[vi].Open {
			if f.V > tol && f.V < 1-tol {
				return false
			}
		}
	}
	return true
}

// OpenY is the fractional-storage threshold at which an office counts as
// holding a copy of a video: y_i^m ≥ OpenY. Integral placements sit exactly
// at 0 or 1. The router, the simulator's pinned lists, the warm start's open
// sets, the migration origins and the copy counts all read this one rule.
const OpenY = 0.5

// Copies returns the number of offices storing each video (counting
// y ≥ OpenY for fractional solutions).
func (s *Solution) Copies() []int {
	out := make([]int, len(s.Videos))
	for vi := range s.Videos {
		for _, f := range s.Videos[vi].Open {
			if f.V >= OpenY {
				out[vi]++
			}
		}
	}
	return out
}

// TotalCopiesGB returns the storage consumed by the placement in GB.
func (s *Solution) TotalCopiesGB() float64 {
	var total float64
	for _, u := range s.DiskUsage() {
		total += u
	}
	return total
}

// LowerBoundNoNetwork returns the trivial objective lower bound β·Σ s^m a_j^m
// obtained by pretending every request is served locally (plus the update
// term's minimum when enabled). Every feasible solution costs at least this.
func (inst *Instance) LowerBoundNoNetwork() float64 {
	var total float64
	for vi := range inst.Demands {
		d := &inst.Demands[vi]
		for _, a := range d.Agg {
			total += inst.Beta * d.SizeGB * a
		}
		if inst.UpdateWeight != 0 {
			best := math.Inf(1)
			for i := 0; i < inst.NumVHOs(); i++ {
				if c := inst.PlacementCost(vi, i); c < best {
					best = c
				}
			}
			total += best
		}
	}
	return total
}
