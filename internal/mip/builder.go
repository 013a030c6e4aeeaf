package mip

import (
	"fmt"
	"math"

	"vodplace/internal/topology"
)

// InstanceShard is one contiguous video range of an Instance: the unit the
// solver stack schedules, accounts and reports independently. The shared
// per-network state (graph, paths, capacities, cost tables) lives on the
// Instance; a shard owns only catalog-dimension state — its demand rows with
// their Conc CSR, and (via ShardOrigins) its slice of the origin vector.
type InstanceShard struct {
	// Lo, Hi delimit the shard's video index range [Lo, Hi) in Demands.
	Lo, Hi int
	// NNZ is the number of concurrency nonzeros stored across the range —
	// the shard's memory footprint is O(NNZ + videos), never O(slices×videos),
	// because the dense Conc staging is dropped as each video is added.
	NNZ int64
	// SizeGB is the total storage footprint of the range's videos.
	SizeGB float64
}

// Videos returns the number of videos in the shard.
func (sh InstanceShard) Videos() int { return sh.Hi - sh.Lo }

// NumShards returns the number of catalog shards (always ≥ 1 for instances
// built by NewInstance or an InstanceBuilder).
func (inst *Instance) NumShards() int { return len(inst.Shards) }

// ShardDemands returns the demand rows of shard s as a view into Demands.
func (inst *Instance) ShardDemands(s int) []VideoDemand {
	sh := inst.Shards[s]
	return inst.Demands[sh.Lo:sh.Hi]
}

// ShardOrigins returns shard s's slice of the origin vector, or nil when the
// instance has no origin vector (no prior placement).
func (inst *Instance) ShardOrigins(s int) []int32 {
	if len(inst.Origin) == 0 {
		return nil
	}
	sh := inst.Shards[s]
	return inst.Origin[sh.Lo:sh.Hi]
}

// InstanceBuilder assembles an Instance incrementally: demands stream in one
// at a time through Add and the builder seals them into contiguous shards,
// so no dense all-video intermediate ever exists. Each added video's dense
// Conc staging is converted to its CSR form immediately and only the CSR is
// retained — peak transient memory is one video's dense rows plus the sealed
// shards' nonzeros, bounded by shard size rather than catalog size.
//
// Add validates exactly as NewInstance does (same checks, same messages, in
// the same order), and NewInstance itself is a thin wrapper over a builder,
// so the streaming and batch construction paths cannot drift.
type InstanceBuilder struct {
	g           *topology.Graph
	diskGB      []float64
	linkCapMbps []float64
	slices      int
	shardSize   int

	demands []VideoDemand
	shards  []InstanceShard
	curLo   int
	curNNZ  int64
	curSize float64

	totalSize float64
	sealed    bool
}

// NewInstanceBuilder validates the shared per-network state and returns an
// empty builder. shardSize is the number of videos per sealed shard; values
// ≤ 0 build a single shard covering the whole catalog (exactly NewInstance's
// layout).
func NewInstanceBuilder(g *topology.Graph, diskGB, linkCapMbps []float64, slices, shardSize int) (*InstanceBuilder, error) {
	if g == nil || !g.Built() {
		return nil, fmt.Errorf("mip: graph must be non-nil and built")
	}
	n := g.NumNodes()
	if len(diskGB) != n {
		return nil, fmt.Errorf("mip: %d disk capacities for %d offices", len(diskGB), n)
	}
	for i, d := range diskGB {
		if d <= 0 {
			return nil, fmt.Errorf("mip: disk capacity at office %d must be positive, got %g", i, d)
		}
	}
	if len(linkCapMbps) != g.NumLinks() {
		return nil, fmt.Errorf("mip: %d link capacities for %d links", len(linkCapMbps), g.NumLinks())
	}
	for l, b := range linkCapMbps {
		if b <= 0 {
			return nil, fmt.Errorf("mip: capacity of link %d must be positive, got %g", l, b)
		}
	}
	if slices < 0 {
		return nil, fmt.Errorf("mip: negative slice count %d", slices)
	}
	return &InstanceBuilder{
		g:           g,
		diskGB:      diskGB,
		linkCapMbps: linkCapMbps,
		slices:      slices,
		shardSize:   shardSize,
	}, nil
}

// NumAdded returns the number of demands accepted so far.
func (b *InstanceBuilder) NumAdded() int { return len(b.demands) }

// validateDemand checks one staged demand against the instance dimensions
// (n offices, slices enforced time slices): positive size and rate, matching
// Js/Agg/Conc shapes, strictly ascending in-range offices, finite
// non-negative aggregates and concurrencies (a NaN or +Inf cell compares
// false to everything and would reach the solver's pricing as it is). Every
// construction route — InstanceBuilder.Add, NewInstance
// through it, and the in-place patch Instance.ApplyDemandDelta — runs this
// one helper, so the checks, messages and their order cannot drift between
// the streaming, batch and patch paths.
func validateDemand(d *VideoDemand, n, slices int) error {
	if d.SizeGB <= 0 {
		return fmt.Errorf("mip: video %d has non-positive size %g", d.Video, d.SizeGB)
	}
	if d.RateMbps <= 0 {
		return fmt.Errorf("mip: video %d has non-positive rate %g", d.Video, d.RateMbps)
	}
	if len(d.Agg) != len(d.Js) {
		return fmt.Errorf("mip: video %d has %d agg entries for %d offices", d.Video, len(d.Agg), len(d.Js))
	}
	if len(d.Conc) != slices {
		return fmt.Errorf("mip: video %d has %d concurrency slices, want %d", d.Video, len(d.Conc), slices)
	}
	for t := range d.Conc {
		if len(d.Conc[t]) != len(d.Js) {
			return fmt.Errorf("mip: video %d slice %d has %d entries for %d offices", d.Video, t, len(d.Conc[t]), len(d.Js))
		}
		for k, c := range d.Conc[t] {
			if !finiteNonNegative(c) {
				return fmt.Errorf("mip: video %d slice %d has negative or non-finite concurrency at office %d", d.Video, t, d.Js[k])
			}
		}
	}
	for k, j := range d.Js {
		if j < 0 || int(j) >= n {
			return fmt.Errorf("mip: video %d demand office %d out of range", d.Video, j)
		}
		if k > 0 && d.Js[k-1] >= j {
			return fmt.Errorf("mip: video %d demand offices not strictly ascending", d.Video)
		}
		if d.Agg[k] < 0 {
			return fmt.Errorf("mip: video %d has negative demand at office %d", d.Video, j)
		}
		if !finiteNonNegative(d.Agg[k]) {
			return fmt.Errorf("mip: video %d has non-finite demand at office %d", d.Video, j)
		}
	}
	return nil
}

// finiteNonNegative reports whether x is a usable demand cell: NaN fails the
// comparison, +Inf the test.
func finiteNonNegative(x float64) bool {
	return x >= 0 && !math.IsInf(x, 1)
}

// Add validates one video demand and appends it to the instance under
// construction. The demand's Js, Agg and dense Conc staging are copied (Conc
// as CSR nonzeros only), so callers may reuse d — including its backing
// slices — for the next video. Demands keep their Add order, which is the
// instance's video index order.
func (b *InstanceBuilder) Add(d *VideoDemand) error {
	return b.add(d, true)
}

// add is Add with an ownership flag: with copyData false the demand's Js and
// Agg slices are adopted rather than copied (the NewInstance wrapper, which
// owns its input slice, uses this to keep the batch path allocation-neutral).
func (b *InstanceBuilder) add(d *VideoDemand, copyData bool) error {
	if b.sealed {
		return fmt.Errorf("mip: Add after Seal")
	}
	if err := validateDemand(d, b.g.NumNodes(), b.slices); err != nil {
		return err
	}

	nd := VideoDemand{
		Video:    d.Video,
		SizeGB:   d.SizeGB,
		RateMbps: d.RateMbps,
		Js:       d.Js,
		Agg:      d.Agg,
	}
	if copyData {
		nd.Js = append([]int32(nil), d.Js...)
		nd.Agg = append([]float64(nil), d.Agg...)
	}
	// CSR only: the dense staging rows in d.Conc are read once here and never
	// retained, so shard memory is bounded by the shard's nonzeros.
	nd.Conc = d.Conc
	nd.buildConcCSR()
	nd.Conc = nil

	b.totalSize += nd.SizeGB
	b.curSize += nd.SizeGB
	b.curNNZ += int64(len(nd.concT))
	b.demands = append(b.demands, nd)
	if b.shardSize > 0 && len(b.demands)-b.curLo >= b.shardSize {
		b.closeShard()
	}
	return nil
}

func (b *InstanceBuilder) closeShard() {
	b.shards = append(b.shards, InstanceShard{
		Lo:     b.curLo,
		Hi:     len(b.demands),
		NNZ:    b.curNNZ,
		SizeGB: b.curSize,
	})
	b.curLo = len(b.demands)
	b.curNNZ = 0
	b.curSize = 0
}

// Seal closes the final shard, checks the aggregate-capacity invariant and
// returns the finished instance. The builder must not be used afterwards.
func (b *InstanceBuilder) Seal() (*Instance, error) {
	if b.sealed {
		return nil, fmt.Errorf("mip: Seal called twice")
	}
	b.sealed = true
	var totalDisk float64
	for _, d := range b.diskGB {
		totalDisk += d
	}
	if b.totalSize > totalDisk {
		return nil, fmt.Errorf("mip: library needs %.1f GB for one copy of each video but aggregate disk is %.1f GB", b.totalSize, totalDisk)
	}
	// Close the tail shard; an instance always has at least one shard, even
	// when empty, so shard-iterating code needs no special case.
	if len(b.demands) > b.curLo || len(b.shards) == 0 {
		b.closeShard()
	}
	inst := &Instance{
		G:           b.g,
		DiskGB:      b.diskGB,
		LinkCapMbps: b.linkCapMbps,
		Slices:      b.slices,
		Demands:     b.demands,
		Shards:      b.shards,
		Alpha:       1,
		Beta:        0,
	}
	inst.cacheHops()
	return inst, nil
}
