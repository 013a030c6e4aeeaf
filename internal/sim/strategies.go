package sim

import (
	"math/rand"
	"sort"

	"vodplace/internal/catalog"
	"vodplace/internal/mip"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

// PinnedFromSolution extracts per-office pinned video lists from an integral
// placement solution (y_i^m ≥ mip.OpenY counts as stored).
func PinnedFromSolution(inst *mip.Instance, sol *mip.Solution) [][]int {
	n := inst.NumVHOs()
	pinned := make([][]int, n)
	for vi := range sol.Videos {
		video := inst.Demands[vi].Video
		for _, f := range sol.Videos[vi].Open {
			if f.V >= mip.OpenY {
				pinned[f.I] = append(pinned[f.I], video)
			}
		}
	}
	return pinned
}

// XDistFromSolution builds the request-routing distribution: for every
// (office, video) pair with demand in the instance, the fractions x_ij^m
// with which office j should fetch video m from office i (§V-B: requests
// are sent to server i with probability x_ij^m).
func XDistFromSolution(inst *mip.Instance, sol *mip.Solution) map[workload.JM][]mip.Frac {
	out := make(map[workload.JM][]mip.Frac)
	for vi := range sol.Videos {
		d := &inst.Demands[vi]
		for k, fr := range sol.Videos[vi].Assign {
			if len(fr) == 0 {
				continue
			}
			key := workload.MakeJM(int(d.Js[k]), d.Video)
			out[key] = append([]mip.Frac(nil), fr...)
		}
	}
	return out
}

// RandomPlacement pins one copy of every video at a uniformly random office
// (the baseline §VII-A strategies start from this layout).
func RandomPlacement(lib *catalog.Library, n int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	pinned := make([][]int, n)
	for _, v := range lib.Videos {
		i := rng.Intn(n)
		pinned[i] = append(pinned[i], v.ID)
	}
	return pinned
}

// TopKPlacement replicates the top k videos of ranked (video ids in
// decreasing popularity) at every office and assigns every remaining video
// to one random office — the simplified Valancius et al. [23] strategy of
// §VII-A. Videos missing from ranked are treated as unpopular.
func TopKPlacement(lib *catalog.Library, ranked []int, k int, n int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	pinned := make([][]int, n)
	if k > len(ranked) {
		k = len(ranked)
	}
	top := make(map[int]bool, k)
	for _, v := range ranked[:k] {
		top[v] = true
	}
	for i := 0; i < n; i++ {
		for _, v := range ranked[:k] {
			pinned[i] = append(pinned[i], v)
		}
	}
	for _, v := range lib.Videos {
		if top[v.ID] {
			continue
		}
		i := rng.Intn(n)
		pinned[i] = append(pinned[i], v.ID)
	}
	return pinned
}

// RankByPopularity returns video ids ordered by decreasing request count
// over the window [from, to) of the trace.
func RankByPopularity(tr *workload.Trace, from, to int64) []int {
	counts := make([]int, tr.Lib.Len())
	sub := tr.Slice(from, to)
	for _, r := range sub.Requests {
		counts[r.Video]++
	}
	ranked := make([]int, len(counts))
	for i := range ranked {
		ranked[i] = i
	}
	sort.SliceStable(ranked, func(a, b int) bool { return counts[ranked[a]] > counts[ranked[b]] })
	return ranked
}

// PinnedGB returns the storage consumed by each office's pinned videos.
func PinnedGB(lib *catalog.Library, pinned [][]int) []float64 {
	out := make([]float64, len(pinned))
	for i, vids := range pinned {
		for _, v := range vids {
			out[i] += lib.Videos[v].SizeGB
		}
	}
	return out
}

// CacheRemainder returns per-office cache capacities: the disk left after
// pinned content, clamped at zero (an office whose random assignment
// overflows its disk simply has no cache).
func CacheRemainder(lib *catalog.Library, pinned [][]int, diskGB []float64) []float64 {
	used := PinnedGB(lib, pinned)
	out := make([]float64, len(diskGB))
	for i := range out {
		out[i] = diskGB[i] - used[i]
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// RegionOrigins partitions the offices into k regions around well-separated
// attachment offices (greedy farthest-point selection) and returns, for each
// office, the attachment office of its region — the Table II origin-server
// layout ("we partitioned our network into four regions, each served by a
// separate origin server connected to one of the VHOs").
func RegionOrigins(g *topology.Graph, k int) []int {
	n := g.NumNodes()
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	seeds := []int{0}
	for len(seeds) < k {
		best, bestDist := -1, -1
		for i := 0; i < n; i++ {
			d := 1 << 30
			for _, s := range seeds {
				if h := g.Hops(s, i); h < d {
					d = h
				}
			}
			if d > bestDist {
				bestDist, best = d, i
			}
		}
		seeds = append(seeds, best)
	}
	origins := make([]int, n)
	for i := 0; i < n; i++ {
		best, bestDist := seeds[0], g.Hops(seeds[0], i)
		for _, s := range seeds[1:] {
			if h := g.Hops(s, i); h < bestDist {
				bestDist, best = h, s
			}
		}
		origins[i] = best
	}
	return origins
}
