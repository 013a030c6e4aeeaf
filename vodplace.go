// Package vodplace is a library for optimal content placement in
// large-scale Video-on-Demand systems, reproducing "Optimal Content
// Placement for a Large-Scale VoD System" (Applegate, Archer,
// Gopalakrishnan, Lee, Ramakrishnan — CoNEXT 2010 / IEEE-ACM ToN 2016).
//
// The library covers the paper end to end:
//
//   - a mixed-integer-programming model of video placement under disk and
//     link-bandwidth constraints (Instance, Solution);
//   - the paper's core contribution: a Lagrangian / exponential-potential-
//     function decomposition that solves the LP relaxation orders of
//     magnitude faster than general-purpose LP solvers, followed by the
//     §V-D integer rounding pass (SolveInteger);
//   - backbone topology models, synthetic libraries and request traces with
//     the statistical structure of the paper's operational traces
//     (Backbone55, GenerateLibrary, GenerateTrace);
//   - demand estimation from request history, including the series-episode
//     and blockbuster estimators for new releases (DemandBuilder);
//   - a trace-driven simulator with LRU/LFU caching baselines and regional
//     origin servers (System.RunMIP, System.RunBaseline, System.RunOriginLRU);
//   - every table and figure of the paper's evaluation, regenerable through
//     the vodplace/internal/experiments registry and the cmd/vodexp tool.
//
// # Quick start
//
//	g := vodplace.Backbone55()
//	lib := vodplace.GenerateLibrary(vodplace.LibraryConfig{NumVideos: 2000, Weeks: 4}, 1)
//	trace := vodplace.GenerateTrace(lib, vodplace.TraceConfig{Days: 28, NumVHOs: g.NumNodes()}, 2)
//	sys := &vodplace.System{
//		G: g, Lib: lib,
//		DiskGB:      vodplace.UniformDisk(lib, g.NumNodes(), 2.0),
//		LinkCapMbps: vodplace.UniformLinks(g, 1000),
//	}
//	run, err := sys.RunMIP(trace, vodplace.MIPOptions{})
//
// Example is a complete program: it builds a 10-office network, solves its
// placement with SolveInteger and prints what it chose, and go test checks
// every line it prints.
package vodplace

import (
	"vodplace/internal/catalog"
	"vodplace/internal/core"
	"vodplace/internal/demand"
	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/sim"
	"vodplace/internal/topology"
	"vodplace/internal/workload"
)

// Topology types and generators.
type (
	// Graph is a backbone network of video hub offices with fixed
	// shortest-path routing.
	Graph = topology.Graph
	// Link is one directed backbone link.
	Link = topology.Link
)

// NewGraph returns an empty graph over n offices; add edges with AddEdge and
// finalize with Build.
func NewGraph(name string, n int) *Graph { return topology.New(name, n) }

// Backbone55 returns the 55-office IPTV backbone model (76 bidirectional
// links) used as the paper's default network.
func Backbone55() *Graph { return topology.Backbone55() }

// Ebone returns the 23-office Rocketfuel-Ebone-sized graph.
func Ebone() *Graph { return topology.Ebone() }

// Catalog types.
type (
	// Library is an immutable video catalog.
	Library = catalog.Library
	// Video is one library item.
	Video = catalog.Video
	// LibraryConfig parameterizes library generation.
	LibraryConfig = catalog.Config
	// VideoClass is a video length/size class.
	VideoClass = catalog.Class
)

// Video classes (§VII-A's four size classes).
const (
	MusicVideo = catalog.MusicVideo
	TVShow     = catalog.TVShow
	Movie1h    = catalog.Movie1h
	Movie2h    = catalog.Movie2h
)

// GenerateLibrary builds a deterministic library: size classes, weekly
// TV-series episodes, blockbusters, and a staggered release schedule.
func GenerateLibrary(cfg LibraryConfig, seed int64) *Library {
	return catalog.Generate(cfg, seed)
}

// Workload types.
type (
	// Trace is a time-ordered request log.
	Trace = workload.Trace
	// Request is one VoD request.
	Request = workload.Request
	// TraceConfig parameterizes trace generation.
	TraceConfig = workload.TraceConfig
)

// GenerateTrace synthesizes a request trace with the diurnal, weekly,
// long-tail and new-release structure of the paper's operational traces.
func GenerateTrace(lib *Library, cfg TraceConfig, seed int64) *Trace {
	return workload.GenerateTrace(lib, cfg, seed)
}

// Optimization model types.
type (
	// Instance is a placement problem: offices, links, videos, demands,
	// capacities (Table I).
	Instance = mip.Instance
	// VideoDemand is one video's demand profile.
	VideoDemand = mip.VideoDemand
	// Solution is a placement: storage decisions y and routing fractions x.
	Solution = mip.Solution
	// Violation summarizes a solution's constraint violations.
	Violation = mip.Violation
)

// Demand estimation.
type (
	// DemandBuilder assembles instances from trace history with the §VI-A
	// estimation strategies.
	DemandBuilder = demand.Builder
	// DemandConfig parameterizes estimation.
	DemandConfig = demand.Config
	// EstimationMethod selects History, Perfect or None.
	EstimationMethod = demand.Method
)

// Estimation methods (Table VI).
const (
	EstimateFromHistory = demand.History
	EstimatePerfect     = demand.Perfect
	EstimateNone        = demand.None
)

// Solver types.
type (
	// SolverOptions configures the EPF solver.
	SolverOptions = epf.Options
	// SolverResult is the solver output: solution, Lagrangian lower bound,
	// optimality gap, violations.
	SolverResult = epf.Result
	// PassInfo reports per-pass solver progress.
	PassInfo = epf.PassInfo
	// SolverStats reports the solver's work breakdown: blocks optimized,
	// dual refreshes, line searches, scratch reuse, per-phase wall time.
	SolverStats = epf.Stats
)

// SolveInteger runs the exponential-potential-function LP solver (the
// paper's core contribution) and then the §V-D rounding pass, returning an
// integral placement with a proven lower bound.
func SolveInteger(inst *Instance, opts SolverOptions) (*SolverResult, error) {
	return epf.SolveInteger(inst, opts)
}

// Simulation and schemes.
type (
	// System is a deployed footprint: backbone, library, capacities.
	System = core.System
	// MIPOptions configures the MIP-based scheme (update period, history
	// window, complementary cache, estimation method).
	MIPOptions = core.MIPOptions
	// BaselineOptions configures the caching baselines.
	BaselineOptions = core.BaselineOptions
	// MIPRun is the MIP scheme's outcome over a trace.
	MIPRun = core.MIPRun
	// Plan is one solved placement period.
	Plan = core.Plan
	// SimConfig is a raw simulator configuration.
	SimConfig = sim.Config
	// SimResult carries simulation metrics (peak link bandwidth, aggregate
	// transfer volume, hit rates).
	SimResult = sim.Result
)

// Simulate plays a trace against a placement configuration directly.
func Simulate(cfg SimConfig, tr *Trace) (*SimResult, error) { return sim.Run(cfg, tr) }

// UniformDisk returns n equal office disk budgets totalling factor × library
// size.
func UniformDisk(lib *Library, n int, factor float64) []float64 {
	return core.UniformDisk(lib, n, factor)
}

// UniformLinks returns equal capacities for every directed link.
func UniformLinks(g *Graph, mbps float64) []float64 { return core.UniformLinks(g, mbps) }
