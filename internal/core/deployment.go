package core

import (
	"flag"

	"vodplace/internal/catalog"
	"vodplace/internal/demand"
	"vodplace/internal/mip"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

// Deployment is the synthetic operator deployment the command-line tools
// place content for: a backbone of VHOs offices, a library of Videos, eight
// days of request history at RPD requests per video per day, uniform disk
// (Disk × library size in total) and link (Link Mb/s) budgets, and Slices
// peak windows of Window seconds. Seed fixes every random draw, so the same
// eight values give the same instance in every binary: a placement served by
// vodserved is reproducible offline with vodplace.
type Deployment struct {
	Videos, VHOs, Slices int
	RPD, Disk, Link      float64
	Window, Seed         int64
}

// Register declares the deployment flags on fs and returns the destination
// to read after fs has been parsed.
func Register(fs *flag.FlagSet) *Deployment {
	d := &Deployment{}
	fs.IntVar(&d.Videos, "videos", 2000, "library size")
	fs.IntVar(&d.VHOs, "vhos", 55, "number of offices (55 = backbone)")
	fs.Float64Var(&d.RPD, "rpd", 4, "requests per video per day")
	fs.Float64Var(&d.Disk, "disk", 2.0, "aggregate disk as multiple of library size")
	fs.Float64Var(&d.Link, "link", 1000, "uniform link capacity in Mb/s")
	fs.IntVar(&d.Slices, "slices", 2, "number of peak-window link constraints |T|")
	fs.Int64Var(&d.Window, "window", 3600, "peak window length in seconds")
	fs.Int64Var(&d.Seed, "seed", 1, "random seed")
	return d
}

// Workload returns the deployment's library and its 8-day request trace.
func (d Deployment) Workload() (*catalog.Library, *workload.Trace) {
	lib := catalog.Generate(catalog.Config{NumVideos: d.Videos, Weeks: 2}, d.Seed+10)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days: 8, NumVHOs: d.VHOs, RequestsPerVideoPerDay: d.RPD,
	}, d.Seed+20)
	return lib, tr
}

// Network is the deployment's topology rule: the 55-office backbone at 55
// offices, a seeded random graph otherwise.
func Network(vhos int, seed int64) *topology.Graph {
	if vhos == 55 {
		return topology.Backbone55()
	}
	return topology.Random(vhos, 1.4, seed)
}

// Instance builds the placement instance for day 7 on the deployment's
// Network, its demand estimated from the first week of history.
func (d Deployment) Instance() (*mip.Instance, error) {
	g := Network(d.VHOs, d.Seed)
	lib, tr := d.Workload()
	b := &demand.Builder{
		G: g, Lib: lib,
		DiskGB:      UniformDisk(lib, d.VHOs, d.Disk),
		LinkCapMbps: UniformLinks(g, d.Link),
		Cfg:         demand.Config{Slices: d.Slices, WindowSec: d.Window, HorizonDays: 7},
	}
	return b.Instance(tr, 7)
}
