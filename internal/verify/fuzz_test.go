package verify

import (
	"math"
	"slices"
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

// mutateWarm applies one fuzz-chosen corruption to a deep copy's worth of
// warm state: the shapes a truncated file, a state from another catalog or
// topology, or a bit flip would produce.
func mutateWarm(w *epf.WarmState, ids []int, kind, at, val uint8) {
	pick := func(n int) int { return int(at) % max(n, 1) }
	office := int32(int8(val)) // −128..127: in range, out of range, negative
	switch kind % 10 {
	case 0:
		w.Assign = w.Assign[:pick(len(w.Assign)+1)]
	case 1:
		for x := 0; x < int(val)%5+1; x++ {
			w.Assign = append(w.Assign, office)
		}
	case 2:
		if len(w.Assign) > 0 {
			w.Assign[pick(len(w.Assign))] = office
		}
	case 3:
		a, b := ids[pick(len(ids))], ids[int(val)%len(ids)]
		va, vb := w.Videos[a], w.Videos[b]
		va.Pos, vb.Pos = vb.Pos, va.Pos
		w.Videos[a], w.Videos[b] = va, vb
	case 4:
		wv := w.Videos[ids[pick(len(ids))]]
		if len(wv.Open) > 0 {
			wv.Open[int(val)%len(wv.Open)] = office
		}
	case 5:
		w.RoundRef = []float64{math.NaN(), -1, 0, math.Inf(1), math.Inf(-1), 1e300, float64(val) / 100}[pick(7)]
	case 6:
		switch lp := w.LP; val % 4 {
		case 0:
			lp.Row = lp.Row[:pick(len(lp.Row)+1)]
		case 1:
			lp.J = lp.J[:pick(len(lp.J)+1)]
		case 2:
			lp.Off = lp.Off[:pick(len(lp.Off)+1)]
		case 3:
			lp.Frac = lp.Frac[:pick(len(lp.Frac)+1)]
		}
	case 7:
		if lp := w.LP; len(lp.Frac) > 0 {
			lp.Frac[pick(len(lp.Frac))].I = office
		}
	case 8:
		if lp := w.LP; val%2 == 0 && len(lp.Row) > 0 {
			lp.Row[pick(len(lp.Row))] = office
		} else if len(lp.Off) > 0 {
			lp.Off[pick(len(lp.Off))] = office
		}
	case 9:
		b := w.Bound
		if b == nil {
			break
		}
		switch val % 4 {
		case 0:
			b.Term = b.Term[:pick(len(b.Term)+1)]
		case 1:
			b.Inputs = b.Inputs[:pick(len(b.Inputs)+1)]
		case 2:
			if len(b.Inputs) > 0 {
				if in := b.Inputs[pick(len(b.Inputs))]; len(in) > 0 {
					in[int(val)%len(in)] ^= 1
				}
			}
		case 3:
			if len(b.Duals) > 0 {
				b.Duals[pick(len(b.Duals))] += 1
			}
		}
	}
}

// FuzzWarmResume hands the solver warm states it did not write: a valid
// exported state with its flat arrays truncated, extended or overwritten,
// positions permuted, offices out of range, rows assigned to offices that
// hold no copy, a reference that is NaN, negative or infinite, and bound
// terms truncated, an input word flipped or the terms' dual copy edited (the
// term values themselves are the state's word, which only the audit checks).
// Whatever
// it is handed, a warm integer solve of a (patched) instance must not panic
// and must return an integral placement whose claims survive the audit —
// a garbled state costs the videos it garbles their resume, nothing else.
func FuzzWarmResume(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6), []byte{})
	f.Add(int64(3), uint8(5), uint8(9), []byte{0, 3, 0, 2, 5, 200, 5, 0, 0})
	f.Add(int64(7), uint8(3), uint8(12), []byte{3, 1, 2, 4, 0, 99, 6, 2, 0, 6, 7, 3, 8, 1, 250})
	f.Add(int64(-2), uint8(6), uint8(4), []byte{1, 0, 130, 7, 2, 77, 8, 3, 1, 5, 3, 0})
	f.Add(int64(5), uint8(5), uint8(8), []byte{9, 2, 2, 9, 1, 6, 9, 3, 3, 3, 0, 4, 9, 0, 8})
	f.Fuzz(func(t *testing.T, seed int64, nodesB, videosB uint8, muts []byte) {
		shape := InstanceOpts{Nodes: clamp(nodesB, 2, 6), Videos: clamp(videosB, 2, 12), Slices: 1 + int(uint64(seed)%2)}
		inst, err := RandomInstance(seed, shape)
		if err != nil {
			t.Skip()
		}
		opts := epf.Options{Seed: seed, MaxPasses: 40, Epsilon: 0.05}
		cold, err := epf.SolveInteger(inst, opts)
		if err != nil {
			t.Fatalf("cold SolveInteger: %v", err)
		}
		// The state is the solver's to keep read-only, ours to garble: rebuild
		// every array the mutations write through.
		w := *cold.Warm
		w.Assign = append([]int32(nil), w.Assign...)
		lp := *w.LP
		lp.Row, lp.J = append([]int32(nil), lp.Row...), append([]int32(nil), lp.J...)
		lp.Off, lp.Frac = append([]int32(nil), lp.Off...), append([]mip.Frac(nil), lp.Frac...)
		w.LP = &lp
		if cold.Warm.Bound != nil {
			b := *cold.Warm.Bound
			b.Duals, b.Term = slices.Clone(b.Duals), slices.Clone(b.Term)
			b.Inputs = make([][]uint32, len(cold.Warm.Bound.Inputs))
			for p, in := range cold.Warm.Bound.Inputs {
				b.Inputs[p] = slices.Clone(in)
			}
			w.Bound = &b
		}
		w.Videos = make(map[int]epf.WarmVideo, len(cold.Warm.Videos))
		var ids []int
		for vi := range inst.Demands {
			id := inst.Demands[vi].Video
			wv := cold.Warm.Videos[id]
			wv.Open = append([]int32(nil), wv.Open...)
			w.Videos[id] = wv
			ids = append(ids, id)
		}
		if len(muts) > 60 {
			muts = muts[:60]
		}
		for ; len(muts) >= 3; muts = muts[3:] {
			mutateWarm(&w, ids, muts[0], muts[1], muts[2])
		}

		// Solve a shifted instance: the first video's demand doubles.
		d := &inst.Demands[0]
		agg := make([]float64, len(d.Js))
		for k := range agg {
			agg[k] = 2 * d.Agg[k]
		}
		conc := make([][]float64, inst.Slices)
		for s := range conc {
			conc[s] = make([]float64, len(d.Js))
		}
		for k := range d.Js {
			ts, vs := d.ConcNZ(k)
			for x, s := range ts {
				conc[s][k] = 2 * vs[x]
			}
		}
		if err := inst.ApplyDemandDelta(0, d.Js, agg, conc); err != nil {
			t.Fatalf("ApplyDemandDelta: %v", err)
		}

		opts.Warm = &w
		res, err := epf.SolveInteger(inst, opts)
		if err != nil {
			t.Fatalf("warm SolveInteger: %v", err)
		}
		if !res.Sol.IsIntegral(1e-4) {
			t.Fatal("resumed solution not integral")
		}
		if r := Audit(inst, res); !r.Ok() {
			t.Fatalf("audit of a %s rounding: %v", res.Stats.RoundMode(), r.Err())
		}
		if st := res.Stats; st.RoundResumed == 1 && !(st.RoundRatio <= w.RoundRef) {
			t.Fatalf("resumed at ratio %v against reference %v", st.RoundRatio, w.RoundRef)
		}
	})
}
