package verify

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
)

// sameCertificate reports how a's certificate differs from a fresh
// CertifyLowerBound of the same inputs ("" when it is the same bits, or the
// same error text), and how many block bounds a reused.
func sameCertificate(a *Auditor, inst *mip.Instance, duals []float64) (diff string, reused int, err error) {
	got, reused, err := a.certify(inst, duals)
	want, wantErr := CertifyLowerBound(inst, duals)
	switch {
	case (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()):
		return fmt.Sprintf("error %v, fresh %v", err, wantErr), reused, err
	case math.Float64bits(got) != math.Float64bits(want):
		return fmt.Sprintf("certified %v, fresh %v", got, want), reused, err
	}
	return "", reused, err
}

// denseDemand returns video vi's aggregates and per-slice concurrency in the
// dense shape ApplyDemandDelta takes.
func denseDemand(inst *mip.Instance, vi int) (agg []float64, conc [][]float64) {
	d := &inst.Demands[vi]
	agg = slices.Clone(d.Agg)
	conc = make([][]float64, inst.Slices)
	for s := range conc {
		conc[s] = make([]float64, len(d.Js))
	}
	for k := range d.Js {
		ts, vs := d.ConcNZ(k)
		for x, s := range ts {
			conc[s][k] = vs[x]
		}
	}
	return agg, conc
}

// An Auditor carried across a sequence of edits certifies each state with the
// value — same bits — or the error — same text — a fresh certificate gives,
// at every pool size, and re-derives exactly the block bounds an edit can
// have moved: one changed concurrency value costs that video's, a changed
// dual, update weight or path every video's, one origin under the update
// objective that video's. A failing certificate leaves the cache as it was.
func TestAuditorCacheMatchesCold(t *testing.T) {
	const videos = 120
	shape := InstanceOpts{Nodes: 8, Videos: videos, Slices: 2}
	res, err := epf.Solve(mustInstance(t, 3, shape), epf.Options{Seed: 3, MaxPasses: 100, Epsilon: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		inst := mustInstance(t, 3, shape)
		duals := slices.Clone(res.RowDuals)
		sizes := []float64{inst.Demands[70].SizeGB, inst.Demands[95].SizeGB}
		a := Auditor{workers: workers}
		for _, step := range []struct {
			name   string
			edit   func()
			reused int // -1: the certificate fails
		}{
			{"empty cache", nil, 0},
			{"unchanged", nil, videos},
			{"one concurrency value", func() {
				agg, conc := denseDemand(inst, 5)
				conc[1][0]++
				if err := inst.ApplyDemandDelta(5, inst.Demands[5].Js, agg, conc); err != nil {
					t.Fatal(err)
				}
			}, videos - 1},
			{"one dual", func() { duals[len(duals)-1] += 0.25 }, 0},
			{"update weight", func() { inst.UpdateWeight, inst.Origin = 0.05, make([]int32, videos) }, 0},
			{"one origin", func() { inst.Origin[9] = 2 }, videos - 1},
			{"one path", func() {
				links, _ := inst.G.PathCSR()
				links[0] = (links[0] + 1) % int32(inst.G.NumLinks())
			}, 0},
			{"unit duals", func() {
				for r := range duals {
					duals[r] = 1
				}
			}, 0},
			// A negative size prices a video's disk rows below zero, an open
			// cost no UFL dual covers.
			{"two failing blocks", func() { inst.Demands[70].SizeGB, inst.Demands[95].SizeGB = -1, -1 }, -1},
			{"still failing", nil, -1},
			{"repaired", func() { inst.Demands[70].SizeGB, inst.Demands[95].SizeGB = sizes[0], sizes[1] }, videos},
		} {
			if step.edit != nil {
				step.edit()
			}
			name := fmt.Sprintf("workers=%d, %s", workers, step.name)
			diff, reused, err := sameCertificate(&a, inst, duals)
			if diff != "" {
				t.Fatalf("%s: %s", name, diff)
			}
			if (err != nil) != (step.reused < 0) {
				t.Fatalf("%s: error %v", name, err)
			}
			if err == nil && reused != step.reused {
				t.Errorf("%s: %d block bounds reused, want %d", name, reused, step.reused)
			}
		}
	}
}

// FuzzAuditorCache drives one Auditor through a random script of demand
// deltas (scaled rows, dropped demand offices, single concurrency values),
// dual perturbations, update-objective origins and sign flips of a video's
// size (the failing certificate), and holds every certificate to a fresh
// one: the same bits, or the same error text.
func FuzzAuditorCache(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(6), []byte{})
	f.Add(int64(3), uint8(5), uint8(9), []byte{0, 3, 40, 1, 2, 7, 2, 5, 0, 5, 0, 0})
	f.Add(int64(8), uint8(3), uint8(12), []byte{3, 1, 2, 3, 4, 1, 4, 2, 0, 5, 0, 0, 4, 2, 0, 2, 9, 33})
	f.Add(int64(-5), uint8(6), uint8(4), []byte{2, 0, 0, 0, 1, 2, 1, 3, 200, 4, 0, 0, 3, 0, 9})
	f.Fuzz(func(t *testing.T, seed int64, nodesB, videosB uint8, script []byte) {
		shape := InstanceOpts{Nodes: clamp(nodesB, 2, 6), Videos: clamp(videosB, 1, 12), Slices: 1 + int(uint64(seed)%2)}
		inst, err := RandomInstance(seed, shape)
		if err != nil {
			t.Skip()
		}
		n := inst.NumVHOs()
		rng := rand.New(rand.NewSource(seed))
		duals := make([]float64, n+inst.G.NumLinks()*inst.Slices)
		for r := range duals {
			duals[r] = rng.Float64()
		}
		a := Auditor{workers: 1 + int(uint64(seed)%4)}
		check := func(step int) {
			t.Helper()
			diff, reused, _ := sameCertificate(&a, inst, duals)
			if diff != "" {
				t.Fatalf("step %d: %s", step, diff)
			}
			if reused < 0 || reused > len(inst.Demands) {
				t.Fatalf("step %d: %d block bounds reused of %d", step, reused, len(inst.Demands))
			}
		}
		check(0)
		if len(script) > 60 {
			script = script[:60]
		}
		for step := 1; len(script) >= 3; step, script = step+1, script[3:] {
			op, vi, val := script[0], int(script[1])%len(inst.Demands), script[2]
			switch op % 6 {
			case 0: // scale the row; an even val also drops one demand office
				d := &inst.Demands[vi]
				js := slices.Clone(d.Js)
				agg, conc := denseDemand(inst, vi)
				for k := range agg {
					agg[k] *= 1 + float64(val)/64
				}
				if k := int(val) % max(len(js), 1); val%2 == 0 && len(js) > 1 {
					js, agg = slices.Delete(js, k, k+1), slices.Delete(agg, k, k+1)
					for s := range conc {
						conc[s] = slices.Delete(conc[s], k, k+1)
					}
				}
				inst.ApplyDemandDelta(vi, js, agg, conc) //nolint:errcheck // a refused delta changes nothing
			case 1: // one concurrency value
				if len(inst.Demands[vi].Js) > 0 {
					agg, conc := denseDemand(inst, vi)
					conc[int(val)%inst.Slices][int(val)%len(agg)] += float64(val%4) + 1
					inst.ApplyDemandDelta(vi, inst.Demands[vi].Js, agg, conc) //nolint:errcheck
				}
			case 2: // one dual, zero included
				duals[int(val)%len(duals)] = float64(val%8) / 4
			case 3: // the update objective, then one origin at a time (−1: no prior copy)
				if inst.UpdateWeight == 0 {
					inst.UpdateWeight, inst.Origin = 0.05, make([]int32, len(inst.Demands))
				}
				inst.Origin[vi] = int32(int(val)%(n+1)) - 1
			case 4: // a size sign flip fails the video's block, and flips back
				inst.Demands[vi].SizeGB = -inst.Demands[vi].SizeGB
			case 5: // nothing changed
			}
			check(step)
		}
	})
}
