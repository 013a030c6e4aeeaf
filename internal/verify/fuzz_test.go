package verify

import (
	"math"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/facloc"
	"vodplace/internal/mip"
	"vodplace/internal/topology"
)

// clamp maps a raw fuzz byte into [lo, hi].
func clamp(b uint8, lo, hi int) int {
	return lo + int(b)%(hi-lo+1)
}

// FuzzNewInstance drives instance construction with arbitrary shape
// parameters: whatever NewInstance accepts must satisfy the model's basic
// invariants (finite symmetric costs, valid shortest paths, a finite
// non-negative trivial bound), and whatever it rejects must be rejected
// without panicking.
func FuzzNewInstance(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7), uint8(1), int64(100))
	f.Add(int64(2), uint8(2), uint8(1), uint8(0), int64(1))
	f.Add(int64(3), uint8(9), uint8(12), uint8(3), int64(-5))
	f.Add(int64(-7), uint8(0), uint8(0), uint8(7), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, nodesB, videosB, slicesB uint8, capRaw int64) {
		nodes := clamp(nodesB, 2, 8)
		videos := clamp(videosB, 0, 10)
		slices := clamp(slicesB, 0, 3)
		g := topology.Random(nodes, 0.5+float64(seed%4)/4, seed)
		demands := make([]mip.VideoDemand, videos)
		rngState := seed
		next := func() int64 { rngState = rngState*6364136223846793005 + 1442695040888963407; return rngState }
		for v := range demands {
			d := mip.VideoDemand{Video: v, SizeGB: 0.5 + float64(uint64(next())%4)/2, RateMbps: 2}
			for j := 0; j < nodes; j++ {
				if uint64(next())%3 != 0 {
					d.Js = append(d.Js, int32(j))
					d.Agg = append(d.Agg, 1+float64(uint64(next())%10))
				}
			}
			d.Conc = make([][]float64, slices)
			for tt := range d.Conc {
				conc := make([]float64, len(d.Js))
				for k := range conc {
					conc[k] = float64(uint64(next()) % 5)
				}
				d.Conc[tt] = conc
			}
			demands[v] = d
		}
		disk := make([]float64, nodes)
		for i := range disk {
			disk[i] = float64(capRaw % 97) // may be ≤ 0: NewInstance must reject
		}
		caps := make([]float64, g.NumLinks())
		for l := range caps {
			caps[l] = float64(capRaw % 89)
		}
		inst, err := mip.NewInstance(g, disk, caps, slices, demands)
		if err != nil {
			return // rejection without panic is the contract
		}
		if lb := inst.LowerBoundNoNetwork(); math.IsNaN(lb) || math.IsInf(lb, 0) || lb < 0 {
			t.Fatalf("trivial bound %g", lb)
		}
		for i := 0; i < nodes; i++ {
			for j := 0; j < nodes; j++ {
				c, cr := inst.Cost(i, j), inst.Cost(j, i)
				if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 || c != cr {
					t.Fatalf("cost(%d,%d) = %g, cost(%d,%d) = %g", i, j, c, j, i, cr)
				}
				if i != j && len(inst.G.Path(i, j)) == 0 {
					t.Fatalf("no path %d→%d in a connected graph", i, j)
				}
			}
		}
	})
}

// FuzzInstanceBuilder drives the streaming InstanceBuilder with arbitrary
// shapes and shard sizes against the batch NewInstance path. The two must
// accept and reject identically (same error text), and on acceptance the
// streamed instance must be value-identical to the batch one with a
// well-formed shard layout: contiguous disjoint ranges covering the catalog,
// no shard above the configured size, and per-shard nonzero counts that
// re-tally from the demands.
func FuzzInstanceBuilder(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7), uint8(1), uint8(3), int64(100))
	f.Add(int64(2), uint8(2), uint8(1), uint8(0), uint8(1), int64(1))
	f.Add(int64(3), uint8(9), uint8(12), uint8(3), uint8(5), int64(-5))
	f.Add(int64(-7), uint8(0), uint8(0), uint8(7), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, nodesB, videosB, slicesB, shardB uint8, capRaw int64) {
		nodes := clamp(nodesB, 2, 8)
		videos := clamp(videosB, 0, 10)
		slices := clamp(slicesB, 0, 3)
		shardSize := clamp(shardB, 0, 5)
		g := topology.Random(nodes, 0.5+float64(seed%4)/4, seed)
		demands := make([]mip.VideoDemand, videos)
		rngState := seed
		next := func() int64 { rngState = rngState*6364136223846793005 + 1442695040888963407; return rngState }
		for v := range demands {
			d := mip.VideoDemand{Video: v, SizeGB: 0.5 + float64(uint64(next())%4)/2, RateMbps: 2}
			for j := 0; j < nodes; j++ {
				if uint64(next())%3 != 0 {
					d.Js = append(d.Js, int32(j))
					d.Agg = append(d.Agg, 1+float64(uint64(next())%10))
				}
			}
			d.Conc = make([][]float64, slices)
			for tt := range d.Conc {
				conc := make([]float64, len(d.Js))
				for k := range conc {
					conc[k] = float64(uint64(next()) % 5)
				}
				d.Conc[tt] = conc
			}
			demands[v] = d
		}
		disk := make([]float64, nodes)
		for i := range disk {
			disk[i] = float64(capRaw % 97)
		}
		caps := make([]float64, g.NumLinks())
		for l := range caps {
			caps[l] = float64(capRaw % 89)
		}

		batch, batchErr := mip.NewInstance(g, disk, caps, slices, demands)
		b, streamErr := mip.NewInstanceBuilder(g, disk, caps, slices, shardSize)
		var streamed *mip.Instance
		if streamErr == nil {
			for vi := range demands {
				if streamErr = b.Add(&demands[vi]); streamErr != nil {
					break
				}
			}
			if streamErr == nil {
				streamed, streamErr = b.Seal()
			}
		}
		if (batchErr == nil) != (streamErr == nil) {
			t.Fatalf("accept/reject parity broken: batch %v, streamed %v", batchErr, streamErr)
		}
		if batchErr != nil {
			if batchErr.Error() != streamErr.Error() {
				t.Fatalf("error parity broken: batch %q, streamed %q", batchErr, streamErr)
			}
			return
		}

		// Shard geometry: contiguous, disjoint, covering, size-capped, with
		// nonzero counts that re-tally.
		ns := streamed.NumShards()
		if ns < 1 {
			t.Fatalf("sealed instance has %d shards", ns)
		}
		prev := 0
		for si := 0; si < ns; si++ {
			sh := streamed.Shards[si]
			if sh.Lo != prev || sh.Hi < sh.Lo || sh.Hi > streamed.NumVideos() {
				t.Fatalf("shard %d bad range [%d,%d), want lo %d", si, sh.Lo, sh.Hi, prev)
			}
			if shardSize > 0 && sh.Videos() > shardSize {
				t.Fatalf("shard %d holds %d videos, cap %d", si, sh.Videos(), shardSize)
			}
			var nnz int64
			for vi := sh.Lo; vi < sh.Hi; vi++ {
				nnz += int64(streamed.Demands[vi].NNZ())
			}
			if nnz != sh.NNZ {
				t.Fatalf("shard %d claims %d nonzeros, demands hold %d", si, sh.NNZ, nnz)
			}
			prev = sh.Hi
		}
		if prev != streamed.NumVideos() {
			t.Fatalf("shards cover %d of %d videos", prev, streamed.NumVideos())
		}

		// Value identity with the batch path, down to the CSR nonzeros.
		if streamed.NumVideos() != batch.NumVideos() {
			t.Fatalf("streamed %d videos, batch %d", streamed.NumVideos(), batch.NumVideos())
		}
		for vi := range batch.Demands {
			db, ds := &batch.Demands[vi], &streamed.Demands[vi]
			if db.Video != ds.Video || db.SizeGB != ds.SizeGB || db.RateMbps != ds.RateMbps || len(db.Js) != len(ds.Js) {
				t.Fatalf("video %d header mismatch", vi)
			}
			for k := range db.Js {
				if db.Js[k] != ds.Js[k] || db.Agg[k] != ds.Agg[k] {
					t.Fatalf("video %d demand %d differs", vi, k)
				}
				tb, fb := db.ConcNZ(k)
				tsj, fsj := ds.ConcNZ(k)
				if len(tb) != len(tsj) {
					t.Fatalf("video %d demand %d: %d vs %d nonzeros", vi, k, len(tb), len(tsj))
				}
				for x := range tb {
					if tb[x] != tsj[x] || fb[x] != fsj[x] {
						t.Fatalf("video %d demand %d nonzero %d differs", vi, k, x)
					}
				}
			}
		}
	})
}

// FuzzEPFSolve runs the approximate solver on arbitrary small instances and
// audits every result with the independent certificate checker: whatever the
// solver outputs, its claims must survive re-derivation.
func FuzzEPFSolve(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(5), uint8(30))
	f.Add(int64(9), uint8(6), uint8(8), uint8(60))
	f.Add(int64(-3), uint8(2), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nodesB, videosB, passesB uint8) {
		inst, err := RandomInstance(seed, InstanceOpts{
			Nodes:  clamp(nodesB, 2, 6),
			Videos: clamp(videosB, 1, 8),
			Slices: clamp(passesB, 1, 2),
		})
		if err != nil {
			t.Skip()
		}
		opts := epf.Options{Seed: seed, MaxPasses: clamp(passesB, 1, 80)}
		res, err := epf.Solve(inst, opts)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if r := Audit(inst, res); !r.Ok() {
			t.Fatalf("LP audit: %v", r.Err())
		}
		intRes, err := epf.SolveInteger(inst, opts)
		if err != nil {
			t.Fatalf("SolveInteger: %v", err)
		}
		if !intRes.Sol.IsIntegral(1e-4) {
			t.Fatal("rounded solution not integral")
		}
		if r := Audit(inst, intRes); !r.Ok() {
			t.Fatalf("integer audit: %v", r.Err())
		}
	})
}

// FuzzFacloc cross-checks the facility-location heuristics (cold, quick and
// warm-started), dual ascent and brute force on arbitrary problems: dual
// bound ≤ optimum ≤ heuristic costs, and every reported cost must re-evaluate
// from its reported open set.
func FuzzFacloc(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6))
	f.Add(int64(5), uint8(8), uint8(12))
	f.Add(int64(-11), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nB, kB uint8) {
		p := RandomUFL(seed, clamp(nB, 1, 9), clamp(kB, 0, 12))
		if err := p.Validate(); err != nil {
			t.Fatalf("generator produced invalid problem: %v", err)
		}
		var fs facloc.Solver
		exact := facloc.BruteForce(p)
		tol := CertTol * (1 + math.Abs(exact.Cost))
		if dualLB, _ := fs.DualAscent(p); dualLB > exact.Cost+tol {
			t.Fatalf("dual bound %g above optimum %g", dualLB, exact.Cost)
		}
		for _, h := range []struct {
			name string
			sol  facloc.Solution
		}{
			{"Solve", fs.Solve(p)}, {"SolveQuick", fs.SolveQuick(p)},
			// The rounding phase's entry point, seeded off the optimum.
			{"SolveWarm", fs.SolveWarm(p, []int32{int32(uint64(seed) % uint64(p.NumFacilities()))})},
			{"BruteForce", exact},
		} {
			if re := uflCost(p, h.sol); relDiff(re, h.sol.Cost) > CertTol {
				t.Fatalf("%s claims %g, open set evaluates to %g", h.name, h.sol.Cost, re)
			}
			if h.sol.Cost < exact.Cost-tol {
				t.Fatalf("%s cost %g below optimum %g", h.name, h.sol.Cost, exact.Cost)
			}
		}
	})
}
