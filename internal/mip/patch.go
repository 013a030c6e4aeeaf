package mip

import "fmt"

// This file is the instance patch API behind the serving plane's delta
// resolve path (DESIGN.md §6). A built Instance is immutable by convention;
// ApplyDemandDelta is the one sanctioned mutation, and it is shaped so that
// patching video-by-video is exactly equivalent — bit for bit — to streaming
// the whole catalog through an InstanceBuilder again:
//
//   - validation is the shared validateDemand helper the builder uses, so a
//     profile the builder would reject, the patch rejects with the same
//     error (and leaves the instance untouched);
//   - the CSR concurrency view is built by the same buildConcCSR walk in the
//     same order, so concOff/concT/concV come out identical;
//   - the owning shard's NNZ tally is adjusted by the integer nonzero delta,
//     which matches the builder's per-shard integer sum regardless of the
//     order patches were applied in.
//
// Identity fields (Video, SizeGB, RateMbps) and the float SizeGB shard
// tallies are immutable under a patch: re-summing floats incrementally would
// break the bit-for-bit equivalence, and the serving plane's demand model
// never changes a video's size or rate anyway.

// Generation returns the number of in-place patches applied to the instance
// since construction. Derived state (route tables, cost snapshots, warm
// starts) can use it to detect that the instance value changed under them.
func (inst *Instance) Generation() uint64 { return inst.generation }

// ApplyDemandDelta replaces the demand profile of video index vi in place:
// js lists the offices with demand (strictly ascending), agg the aggregate
// requests per office, and conc the per-(slice, office) peak concurrency in
// the same dense staging shape InstanceBuilder.Add takes. The inputs are
// validated exactly as the builder validates them and copied into fresh
// backing arrays (the caller may reuse its slices), the CSR concurrency view
// is rebuilt, and the owning shard's NNZ tally is adjusted. On error the
// instance is unchanged.
//
// Only the demand-side fields (Js, Agg and the concurrency CSR) are written:
// Video, SizeGB and RateMbps are immutable under a patch, so concurrent
// readers of those identity fields (the serving data plane's snapshot
// handlers) never race with a patch. Patching itself is single-writer — the
// caller must serialize all calls on one goroutine.
//
// Valid only on constructed instances (NewInstance or InstanceBuilder);
// hand-built instances without a shard layout are rejected.
func (inst *Instance) ApplyDemandDelta(vi int, js []int32, agg []float64, conc [][]float64) error {
	if vi < 0 || vi >= len(inst.Demands) {
		return fmt.Errorf("mip: patch video index %d out of range [0,%d)", vi, len(inst.Demands))
	}
	if len(inst.Shards) == 0 {
		return fmt.Errorf("mip: ApplyDemandDelta on an instance without shards (not built by NewInstance or InstanceBuilder)")
	}
	old := &inst.Demands[vi]
	staged := VideoDemand{
		Video:    old.Video,
		SizeGB:   old.SizeGB,
		RateMbps: old.RateMbps,
		Js:       js,
		Agg:      agg,
		Conc:     conc,
	}
	if err := validateDemand(&staged, inst.G.NumNodes(), inst.Slices); err != nil {
		return err
	}

	// Copy-on-write: fresh backing arrays, identical to the builder's copy
	// path, so the caller's slices and any previously handed-out views of
	// the old row both stay valid.
	staged.Js = append([]int32(nil), js...)
	staged.Agg = append([]float64(nil), agg...)
	staged.buildConcCSR()
	staged.Conc = nil

	inst.Shards[inst.shardOf(vi)].NNZ += int64(len(staged.concT)) - int64(len(old.concT))
	old.Js = staged.Js
	old.Agg = staged.Agg
	old.Conc = nil
	old.concOff = staged.concOff
	old.concT = staged.concT
	old.concV = staged.concV
	inst.generation++
	return nil
}

// shardOf returns the index of the shard owning video index vi (shards are
// contiguous and sorted, so this is a binary search over their Hi bounds).
func (inst *Instance) shardOf(vi int) int {
	lo, hi := 0, len(inst.Shards)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if inst.Shards[mid].Hi <= vi {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
