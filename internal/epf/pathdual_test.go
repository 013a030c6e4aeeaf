package epf

import (
	"context"
	"math"
	"testing"
)

// TestPathDualsTrackRebuild is the equivalence proof for the delta-updated
// path-dual table: after every computePathDuals(q) of a descent, pathDualT is
// compared entry by entry with a scratch rebuildPathDuals of the same q.
//
// The bound, for one entry with path P (|P| ≤ maxPathLen), relative to H, the
// largest exact value the entry has held since the last sync (duals fall by
// orders of magnitude between refreshes, and a rounding error made while the
// entry was large does not shrink with it):
//
//   - Staleness. A link pushes its delta only when it has left qPrev, the
//     last value it pushed, by more than pdRelTol·qPrev, so staleness never
//     accumulates: the table is within pdRelTol·Σ_P qPrev
//     ≤ pdRelTol·(1+2·pdRelTol)·H of exact.
//   - Rounding. At most |P| additions per refresh, pdRebuildEvery refreshes
//     between syncs. Mid-refresh the entry is a sum of old and new link
//     values, at most 2H; an addition rounds the delta (≤ u·H) and the sum
//     (≤ u·2H). The sync's and the scratch rebuild's own summations add at
//     most |P|·u·H each, dualMoved's float evaluation 2u per link:
//     (3·pdRebuildEvery + 4)·maxPathLen·u·H in all, u = 2⁻⁵³.
//
// pdRebuildEvery is what keeps the second term under the first. A period long
// enough for rounding alone to outgrow the per-link tolerance would make the
// period, not pdRelTol, the table's accuracy; the test refuses one before
// running anything, so it fails at once when pdRebuildEvery is absurdly high.
func TestPathDualsTrackRebuild(t *testing.T) {
	const u = 1.0 / (1 << 53)
	var deltas, periodic int
	for _, seed := range []int64{9, 11, 17, 31, 43} {
		inst := randomInstance(t, seed, 10, 90, 2.0, 150)
		s, err := newSolver(inst, Options{Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		s.ctx = context.Background()
		s.initDescent()

		maxPathLen := 0
		_, off := inst.G.PathCSR()
		for p := 0; p+1 < len(off); p++ {
			maxPathLen = max(maxPathLen, int(off[p+1]-off[p]))
		}
		rounding := float64((3*pdRebuildEvery+4)*maxPathLen) * u
		if rounding > pdRelTol {
			t.Fatalf("pdRebuildEvery = %d lets rounding drift (%.3g·H over %d-link paths) outgrow the per-link tolerance pdRelTol = %g",
				pdRebuildEvery, rounding, maxPathLen, pdRelTol)
		}
		tol := pdRelTol*(1+2*pdRelTol) + rounding

		exact := make([]float64, len(s.pathDualT))
		high := make([]float64, len(s.pathDualT))
		seedDeltas := 0
		check := func(q []float64, since int) {
			live := s.pathDualT
			s.pathDualT = exact
			s.rebuildPathDuals(q)
			s.pathDualT = live
			synced := s.pdSince == 0
			switch {
			case !synced:
				seedDeltas++
			case since >= pdRebuildEvery:
				periodic++
			}
			for e, want := range exact {
				if synced {
					high[e] = want
					if live[e] != want {
						t.Fatalf("seed %d: entry %d is %v right after a sync, rebuild gives %v", seed, e, live[e], want)
					}
					continue
				}
				high[e] = max(high[e], want)
				if d := math.Abs(live[e] - want); d > tol*high[e] {
					t.Fatalf("seed %d: entry %d is %v after %d delta refreshes, rebuild gives %v: off by %.3g of its high %v, bound %.3g",
						seed, e, live[e], s.pdSince, want, d/high[e], high[e], tol)
				}
			}
		}

		// descentPass, with every refresh inspected: the table and s.q are
		// untouched between a chunk's dual freeze and the next one.
		numBlocks := len(s.sol)
		for pass := 0; pass < 2*pdRebuildEvery; pass++ {
			s.rng.Shuffle(numBlocks, s.swapFn)
			for lo := 0; lo < numBlocks; lo += s.opts.ChunkSize {
				since := s.pdSince
				s.computeDuals(s.q)
				s.computePathDuals(s.q)
				check(s.q, since)
				s.chunk = s.perm[lo:min(lo+s.opts.ChunkSize, numBlocks)]
				s.buildChunkTasks()
				if err := s.pool.RunTasks(s.ctx, s.tasks, s.chunkTaskFn); err != nil {
					t.Fatal(err)
				}
				for c, vi := range s.chunk {
					s.applyBlock(vi, &s.chunkSols[c])
				}
				dc, r0 := s.maxCouplingViol()
				if dz := max(dc, r0, s.opts.Epsilon/2); dz < s.delta {
					s.delta = dz
					s.alpha = s.gammaLnM1 / s.delta
				}
			}
		}
		if seedDeltas == 0 {
			t.Errorf("seed %d: no refresh took the delta path; nothing was compared", seed)
		}
		deltas += seedDeltas
	}
	if periodic == 0 {
		t.Errorf("%d delta refreshes and not one periodic sync: pdRebuildEvery = %d never fired", deltas, pdRebuildEvery)
	}
}

// TestDeprecatedModeBitsAreInert: Options.IncrementalPricing and
// Options.ParallelRound are kept only because the frozen benchmark sets them.
// All four settings must give the same solve, bit for bit, and it must be the
// recorded one.
func TestDeprecatedModeBitsAreInert(t *testing.T) {
	for _, tc := range roundIdentityCases[:2] {
		var base *Result
		for _, bits := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			opts := tc.opts
			opts.IncrementalPricing, opts.ParallelRound = bits[0], bits[1]
			res, err := SolveInteger(tc.inst(t), opts)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if base == nil {
				base = res
				if res.Objective != tc.obj || openSetHash(res.Sol) != tc.open {
					t.Errorf("%s: objective %#v open %#x, recorded %#v %#x", tc.name, res.Objective, openSetHash(res.Sol), tc.obj, tc.open)
				}
				continue
			}
			if res.Objective != base.Objective || !identicalDuals(res.RowDuals, base.RowDuals) ||
				openSetHash(res.Sol) != openSetHash(base.Sol) || res.Stats.RoundResolves != base.Stats.RoundResolves {
				t.Errorf("%s: bits %v changed the solve: objective %#v open %#x resolves %d, zero value gives %#v %#x %d",
					tc.name, bits, res.Objective, openSetHash(res.Sol), res.Stats.RoundResolves,
					base.Objective, openSetHash(base.Sol), base.Stats.RoundResolves)
			}
		}
	}
}
