package serve

import (
	"context"
	"net/http"
	"reflect"
	"testing"

	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/topology"
)

// fuzzBytes is a deterministic byte cursor over the fuzz input; an exhausted
// cursor yields zeros so every input decodes to *some* structure.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (f *fuzzBytes) next() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return b
}

// FuzzRouteTable feeds arbitrary hand-built placements and topologies to the
// snapshot builder and checks its contract: it never panics, every route the
// snapshot answers is a feasible open copy with minimal transfer cost (lowest
// office index on ties), and pairs with no open copy are reported unreachable
// — never mis-routed to a default office. Placements naming out-of-range
// offices must be rejected with an error at build time.
func FuzzRouteTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0xff, 4, 2, 1, 3, 2, 1, 0x03, 2, 1, 80, 2, 60})
	f.Add([]byte{0, 5, 1, 1, 1, 0x1f, 3, 1, 2, 1, 3, 1, 4, 1, 5, 1, 2, 0, 149, 1, 20})
	f.Add([]byte{4, 3, 2, 5, 2, 0x0a, 4, 2, 3, 2, 1, 7, 120, 0, 49, 2, 2, 1, 1, 0x01, 1, 1, 1, 6, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := &fuzzBytes{data: data}
		n := 2 + int(rd.next())%5  // 2..6 offices
		nv := 1 + int(rd.next())%6 // 1..6 videos
		var g *topology.Graph
		if rd.next()%2 == 0 {
			g = topology.Tree(n)
		} else {
			g = topology.FullMesh(n)
		}

		// Decode demands: strictly increasing library ids, per-office
		// aggregates from a presence mask, one concurrency slice.
		demands := make([]mip.VideoDemand, 0, nv)
		id := 0
		for v := 0; v < nv; v++ {
			id += 1 + int(rd.next())%4
			d := mip.VideoDemand{
				Video:    id,
				SizeGB:   1 + float64(rd.next()%8),
				RateMbps: 1 + float64(rd.next()%4),
				Conc:     [][]float64{nil},
			}
			mask := rd.next()
			for j := 0; j < n; j++ {
				if mask>>uint(j)&1 == 0 {
					continue
				}
				d.Js = append(d.Js, int32(j))
				d.Agg = append(d.Agg, float64(rd.next()%5))
				d.Conc[0] = append(d.Conc[0], float64(rd.next()%3))
			}
			demands = append(demands, d)
		}
		inst, err := mip.NewInstance(g, uniform(n, 1e6), uniform(g.NumLinks(), 1e6), 1, demands)
		if err != nil {
			return // instance validation rejected the decode; not our contract
		}

		// Decode an arbitrary placement: open lists with offices that may be
		// out of range and fractions straddling the 0.5 serving threshold.
		sol := mip.NewSolution(inst)
		badOffice := false
		for vi := range sol.Videos {
			cnt := int(rd.next()) % 4
			for c := 0; c < cnt; c++ {
				io := int(rd.next())%(n+2) - 1 // [-1, n]: both ends invalid
				y := float64(rd.next()%150) / 100
				sol.Videos[vi].Open = append(sol.Videos[vi].Open, mip.Frac{I: int32(io), V: y})
				if y >= mip.OpenY && (io < 0 || io >= n) {
					badOffice = true
				}
			}
		}

		snap, err := buildSnapshot(inst, sol, 1, false)
		if badOffice {
			if err == nil {
				t.Fatal("placement with out-of-range open office was accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed placement rejected: %v", err)
		}

		// Cross-check every answer — including ids and offices outside the
		// snapshot's range — against the from-scratch recomputation.
		maxID := inst.Demands[len(inst.Demands)-1].Video
		for qid := -1; qid <= maxID+2; qid++ {
			vi := -1
			for k := range inst.Demands {
				if inst.Demands[k].Video == qid {
					vi = k
					break
				}
			}
			for j := -1; j <= n; j++ {
				office, ok := snap.Route(qid, j)
				want := -1
				if vi >= 0 && j >= 0 && j < n {
					want = cheapestCopy(inst, sol, vi, j)
				}
				if !ok {
					if want != -1 {
						t.Fatalf("video %d vho %d reported unreachable, but office %d holds a copy", qid, j, want)
					}
					continue
				}
				if office != want {
					t.Fatalf("video %d vho %d routed to %d, cheapest open copy is %d", qid, j, office, want)
				}
				// Feasibility: the routed office really holds an open copy.
				feasible := false
				for _, fr := range sol.Videos[vi].Open {
					if int(fr.I) == office && fr.V >= mip.OpenY {
						feasible = true
					}
				}
				if !feasible {
					t.Fatalf("video %d vho %d routed to office %d which holds no open copy", qid, j, office)
				}
				// And the encoder agrees with the table.
				buf, status := snap.AppendRoute(nil, qid, j)
				if status != 200 {
					t.Fatalf("Route ok but AppendRoute returned %d: %s", status, buf)
				}
			}
		}
	})
}

// FuzzDemandBatch posts arbitrary bodies to POST /demand on a small seeded
// server whose background resolver is stopped, then runs the re-solve the
// batch would have kicked on this goroutine. The contract: the handler
// answers 202, 400 or 413 and nothing else; a refused batch leaves the demand
// state and the update counter untouched; after an accepted one — whatever
// its adds sum to — the re-solve neither panics nor fails (the first seed is
// two finite adds whose sum is +Inf, which used to panic a pool worker).
func FuzzDemandBatch(f *testing.F) {
	f.Add([]byte(`[{"video":0,"vho":0,"add":1e308},{"video":0,"vho":0,"add":1e308}]`))
	f.Add([]byte(`[{"video":0,"vho":0,"add":1e12},{"video":0,"vho":0,"add":1e12},{"video":3,"vho":1,"add":-1e12}]`))
	f.Add([]byte(`[{"video":1,"vho":2,"add":40},{"video":5,"vho":0,"add":-3}]`))
	f.Add([]byte(`[{"video":99,"vho":0,"add":1}]`))
	f.Add([]byte(`[{"video":0,"vho":0,"add":1}] x`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(syntheticInstance(t, 12, 4, 2, 1), Config{
			Solver: epf.Options{Seed: 1, MaxPasses: 40, Epsilon: 0.05, Workers: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Close() // stops the resolver loop; the handlers keep answering

		switch rec := postDemand(s.Handler(), body); rec.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if !reflect.DeepEqual(s.state, stateFromInstance(s.live)) || s.dirty || s.Stats().DemandUpdates != 0 {
				t.Fatalf("batch refused with %d changed the demand state", rec.Code)
			}
		default:
			t.Fatalf("POST /demand answered %d: %s", rec.Code, rec.Body)
		}
		if _, err := s.resolveOnce(context.Background()); err != nil {
			t.Fatalf("re-solve after the batch: %v", err)
		}
	})
}
