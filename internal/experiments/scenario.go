// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV, §V-D, §VII). Each experiment is a named function that
// builds the required workload, runs the placement pipeline and baselines,
// and prints the same rows or series the paper reports. The cmd/vodexp tool
// and the repository's benchmark suite both drive this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"vodplace/internal/core"
	"vodplace/internal/epf"
	"vodplace/internal/mip"
	"vodplace/internal/obs"
	"vodplace/internal/topology"
	"vodplace/internal/verify"
	"vodplace/internal/workload"

	"vodplace/internal/catalog"
)

// Config scales the experiments. The zero value selects the default
// evaluation scale (55-office backbone, 2 000 videos, 28 days); Quick
// selects a reduced scale suitable for unit tests and benchmarks.
type Config struct {
	// Videos is the library size. Default 2000 (Quick: 300).
	Videos int
	// Days is the trace length. Default 28 (Quick: 16).
	Days int
	// VHOs is the office count; the default 55 uses the backbone topology
	// (Quick: 10, a random graph).
	VHOs int
	// RequestsPerVideoPerDay scales trace volume. Default 25 (Quick: 20) —
	// the paper's service sees hundreds of requests per video per week.
	RequestsPerVideoPerDay float64
	// DiskFactor is aggregate disk as a multiple of library size. Default 2.
	DiskFactor float64
	// LinkCapMbps is the uniform link capacity. Default 1000 (1 Gb/s).
	LinkCapMbps float64
	// Seed drives all randomness. Default 1.
	Seed int64
	// MaxPasses caps the EPF solver. Default 80 (Quick: 50).
	MaxPasses int
	// Epsilon overrides the solver's convergence tolerance (0 keeps the
	// solver default). Looser tolerances let small noisy instances converge
	// before the pass cap — useful when studying convergence trends.
	Epsilon float64
	// Quick shrinks everything for tests.
	Quick bool
	// Verify re-checks every solver result with the independent certificate
	// auditor (internal/verify) and fails loudly on any violated claim.
	Verify bool
	// Warm enables cross-period warm starts in every multi-period MIP
	// pipeline an experiment runs (core.MIPOptions.Warm): each day's solve is
	// seeded from the previous day's final solver state. vodexp sets it
	// unless -cold is given. Warm solves move floating-point trajectories, so
	// figure outputs differ slightly from cold ones (never beyond the
	// certified tolerance).
	Warm bool
	// Recorder threads the telemetry layer (internal/obs) through every
	// solver and simulator run an experiment performs. nil disables it.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	out := c
	if out.Quick {
		if out.Videos <= 0 {
			out.Videos = 300
		}
		if out.Days <= 0 {
			out.Days = 16
		}
		if out.VHOs <= 0 {
			out.VHOs = 10
		}
		if out.RequestsPerVideoPerDay <= 0 {
			out.RequestsPerVideoPerDay = 20
		}
		if out.MaxPasses <= 0 {
			out.MaxPasses = 50
		}
	}
	if out.Videos <= 0 {
		out.Videos = 2000
	}
	if out.Days <= 0 {
		out.Days = 28
	}
	if out.VHOs <= 0 {
		out.VHOs = 55
	}
	if out.RequestsPerVideoPerDay <= 0 {
		// The paper's service sees "100 K's" of requests per day; scaled to
		// the default 2 000-video library this keeps per-office concurrency
		// in the regime where caches cycle and links matter.
		out.RequestsPerVideoPerDay = 25
	}
	if out.DiskFactor <= 0 {
		out.DiskFactor = 2.0
	}
	if out.LinkCapMbps <= 0 {
		out.LinkCapMbps = 1000
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.MaxPasses <= 0 {
		out.MaxPasses = 80
	}
	return out
}

func (c Config) solver() epf.Options {
	return epf.Options{
		Seed: c.Seed, MaxPasses: c.MaxPasses, Epsilon: c.Epsilon,
		Recorder: c.Recorder,
	}
}

// mipOptions returns o with the configuration's Solver, Verify and Warm.
func (c Config) mipOptions(o core.MIPOptions) core.MIPOptions {
	o.Solver, o.Verify, o.Warm = c.solver(), c.Verify, c.Warm
	return o
}

// audit re-checks res against inst with the independent certificate auditor
// when Verify is set, returning the auditor's error on any violated claim.
func (c Config) audit(inst *mip.Instance, res *epf.Result) error {
	if !c.Verify {
		return nil
	}
	if rep := verify.Audit(inst, res); !rep.Ok() {
		return rep.Err()
	}
	return nil
}

// mustAudit is audit for call sites without an error path (feasibility
// probes, timing closures); a violated claim panics, which is the loud
// failure -verify promises.
func (c Config) mustAudit(inst *mip.Instance, res *epf.Result) {
	if err := c.audit(inst, res); err != nil {
		panic(err)
	}
}

// Scenario is a fully materialized evaluation setup.
type Scenario struct {
	Cfg   Config
	G     *topology.Graph
	Lib   *catalog.Library
	Trace *workload.Trace
	Sys   *core.System
}

// NewScenario builds the default evaluation setup for cfg on the
// deployment's network (core.Network: the 55-office backbone, or a random
// graph at other office counts).
func NewScenario(cfg Config) *Scenario {
	c := cfg.withDefaults()
	return scenarioOn(core.Network(c.VHOs, c.Seed), c)
}

// scenarioOn builds the evaluation setup for cfg on g, one office per node:
// a library with weekly series episodes and blockbusters, and a full-horizon
// trace.
func scenarioOn(g *topology.Graph, cfg Config) *Scenario {
	c := cfg.withDefaults()
	c.VHOs = g.NumNodes()
	lib := catalog.Generate(catalog.Config{
		NumVideos: c.Videos,
		Weeks:     (c.Days + 6) / 7,
		NumSeries: max(2, c.Videos/200),
	}, c.Seed+10)
	tr := workload.GenerateTrace(lib, workload.TraceConfig{
		Days:                   c.Days,
		NumVHOs:                c.VHOs,
		RequestsPerVideoPerDay: c.RequestsPerVideoPerDay,
	}, c.Seed+20)
	sys := &core.System{
		G:           g,
		Lib:         lib,
		DiskGB:      core.UniformDisk(lib, c.VHOs, c.DiskFactor),
		LinkCapMbps: core.UniformLinks(g, c.LinkCapMbps),
	}
	return &Scenario{Cfg: c, G: g, Lib: lib, Trace: tr, Sys: sys}
}

// Runner is one registered experiment. Run observes ctx: experiments that
// reach the solver stop within one chunk of a cancellation.
type Runner struct {
	ID    string
	Title string
	Run   func(ctx context.Context, w io.Writer, cfg Config) error
}

var registry []Runner

func register(id, title string, run func(context.Context, io.Writer, Config) error) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// All returns the registered experiments sorted by id.
func All() []Runner {
	out := append([]Runner(nil), registry...)
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Lookup finds an experiment by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// RunAll executes every experiment in id order, stopping at the first
// error or cancellation.
func RunAll(ctx context.Context, w io.Writer, cfg Config) error {
	for _, r := range All() {
		if err := ctx.Err(); err != nil {
			return err
		}
		fmt.Fprintf(w, "==== %s: %s ====\n", r.ID, r.Title)
		if err := r.Run(ctx, w, cfg); err != nil {
			return fmt.Errorf("experiment %s: %w", r.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
