package epf

import "testing"

// TestPathDualsAreExact: pathDualT is a pure function of the last q. After
// every computePathDuals(q) of a descent and of a rounding, each entry equals,
// bit for bit, the sum of q along G.Path(i, j) in link order (0 on the
// diagonal), whatever the table held before.
func TestPathDualsAreExact(t *testing.T) {
	for _, seed := range []int64{9, 11, 17, 31, 43} {
		inst := randomInstance(t, seed, 10, 90, 2.0, 150)
		s, err := newSolver(inst, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		s.initDescent()

		refreshes := 0
		check := func(phase string) {
			t.Helper()
			refreshes++
			n := s.n
			for tt := 0; tt < s.T; tt++ {
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						var want float64
						for _, l := range inst.G.Path(i, j) {
							want += s.q[s.rowLink(int(l), tt)]
						}
						if got := s.pathDualT[(tt*n+j)*n+i]; got != want {
							t.Fatalf("seed %d, %s refresh %d: entry (t=%d, %d->%d) is %v, the path sums to %v",
								seed, phase, refreshes, tt, i, j, got, want)
						}
					}
				}
			}
		}

		// descentPass, with every refresh inspected.
		numBlocks := len(s.sol)
		for pass := 0; pass < 32; pass++ {
			s.rng.Shuffle(numBlocks, s.swapFn)
			for lo := 0; lo < numBlocks; lo += s.opts.ChunkSize {
				s.computeDuals(s.q)
				s.computePathDuals(s.q)
				check("descent")
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

		// polishInteger's chunk loop on the threshold seed, likewise.
		s.seedBlocks(s.thresholdBlock(s.packPoint(&WarmLP{})))
		s.recomputeState()
		s.retuneScale()
		ws := s.scratch.Get(0)
		for pass := 0; pass < 2; pass++ {
			for lo := 0; lo < numBlocks; lo += roundChunk {
				s.refreshRoundDuals()
				check("rounding")
				dcCap, _ := s.maxCouplingViol()
				dcCap = max(dcCap, s.opts.Epsilon)
				for vi := lo; vi < min(lo+roundChunk, numBlocks); vi++ {
					bs := &s.sol[vi]
					s.addBlockRows(vi, bs, -1)
					oldCost := s.blockCost(vi, bs)
					if ns := s.roundSolve(ws, vi); s.integerStepImproves(vi, bs, ns, oldCost, pass == 0, dcCap) {
						s.setIntBlock(vi, ns.open, ns.assign)
					}
					s.addBlockRows(vi, bs, +1)
					s.obj += s.blockCost(vi, bs) - oldCost
				}
			}
			s.retuneScale()
		}
	}
}
