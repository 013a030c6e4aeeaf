package verify

import (
	"fmt"
	"math"
	"math/rand"

	"vodplace/internal/facloc"
	"vodplace/internal/mip"
	"vodplace/internal/topology"
)

// InstanceOpts parameterizes the seeded random instances of RandomInstance.
// Zero fields take the defaults described below.
type InstanceOpts struct {
	// Nodes is the number of video hub offices. Default 5.
	Nodes int
	// Videos is the number of videos in the library. Default 7.
	Videos int
	// Slices is the number of time slices. Default 1.
	Slices int
	// DiskFactor scales per-office disk against total library size: each
	// office gets totalSize·DiskFactor/Nodes GB. Default 2.
	DiskFactor float64
	// LinkCapMbps is the uniform link capacity. Default 100.
	LinkCapMbps float64
	// DemandProb is the probability each office demands each video.
	// Default 0.7.
	DemandProb float64
}

// instanceBeta is the random instances' fixed per-transfer cost component of
// c_ij = α·hops + β, nonzero so the no-network bound is informative.
const instanceBeta = 0.5

// defaults fills zero fields with the defaults described above.
func (o InstanceOpts) defaults() InstanceOpts {
	if o.Nodes == 0 {
		o.Nodes = 5
	}
	if o.Videos == 0 {
		o.Videos = 7
	}
	if o.Slices == 0 {
		o.Slices = 1
	}
	if o.DiskFactor == 0 {
		o.DiskFactor = 2
	}
	if o.LinkCapMbps == 0 {
		o.LinkCapMbps = 100
	}
	if o.DemandProb == 0 {
		o.DemandProb = 0.7
	}
	return o
}

// edgeDensity is the extra-edge density of the random instances' topologies
// (topology.Random).
const edgeDensity = 1

// RandomInstance builds a seeded random placement instance small enough for
// the dense simplex to solve exactly. The same seed always yields the same
// instance; distinct seeds drive the topology and the demand pattern.
func RandomInstance(seed int64, opts InstanceOpts) (*mip.Instance, error) {
	o := opts.defaults()
	rng := rand.New(rand.NewSource(seed))
	g := topology.Random(o.Nodes, edgeDensity, seed)
	demands := make([]mip.VideoDemand, o.Videos)
	var totalSize float64
	for v := range demands {
		size := []float64{0.5, 1, 2}[rng.Intn(3)]
		totalSize += size
		d := mip.VideoDemand{Video: v, SizeGB: size, RateMbps: 2}
		for j := 0; j < o.Nodes; j++ {
			if rng.Float64() < o.DemandProb {
				d.Js = append(d.Js, int32(j))
				d.Agg = append(d.Agg, 1+rng.Float64()*10)
			}
		}
		d.Conc = make([][]float64, o.Slices)
		for t := range d.Conc {
			conc := make([]float64, len(d.Js))
			for k := range conc {
				// Concurrency peaks move across slices so multi-slice
				// instances exercise distinct link rows.
				phase := 0.5 + 0.5*math.Cos(float64(t+v)*math.Pi/float64(o.Slices))
				conc[k] = math.Ceil(d.Agg[k] * phase / 3)
			}
			d.Conc[t] = conc
		}
		demands[v] = d
	}
	disk := make([]float64, o.Nodes)
	for i := range disk {
		disk[i] = totalSize * o.DiskFactor / float64(o.Nodes)
	}
	caps := make([]float64, g.NumLinks())
	for l := range caps {
		caps[l] = o.LinkCapMbps
	}
	inst, err := mip.NewInstance(g, disk, caps, o.Slices, demands)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	inst.Beta = instanceBeta
	return inst, nil
}

// RandomUFL builds a seeded random uncapacitated facility-location problem
// with n facilities and k demands, sized for BruteForce enumeration.
func RandomUFL(seed int64, n, k int) *facloc.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := &facloc.Problem{
		Open:   make([]float64, n),
		Assign: make([]float64, k*n),
	}
	for i := range p.Open {
		p.Open[i] = rng.Float64() * 10
	}
	// Row-major fill preserves the historical rng draw order.
	for idx := range p.Assign {
		p.Assign[idx] = rng.Float64() * 8
	}
	return p
}
