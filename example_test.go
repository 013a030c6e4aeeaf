package vodplace_test

import (
	"fmt"
	"log"

	"vodplace"
)

// Build a small VoD system, solve a placement for it and inspect the result.
func Example() {
	// A 10-office backbone-like network with a 500-video library.
	g := vodplace.NewGraph("demo", 10)
	for i := 0; i < 10; i++ {
		if err := g.AddEdge(i, (i+1)%10); err != nil { // ring
			log.Fatal(err)
		}
	}
	for i := 0; i < 10; i += 3 { // a few chords
		if err := g.AddEdge(i, (i+4)%10); err != nil {
			log.Fatal(err)
		}
	}
	if err := g.Build(); err != nil {
		log.Fatal(err)
	}

	lib := vodplace.GenerateLibrary(vodplace.LibraryConfig{NumVideos: 500, Weeks: 2}, 1)
	trace := vodplace.GenerateTrace(lib, vodplace.TraceConfig{
		Days: 8, NumVHOs: 10, RequestsPerVideoPerDay: 3,
	}, 2)
	fmt.Printf("library: %d videos, %.0f GB; trace: %d requests over %d days\n",
		lib.Len(), lib.TotalSizeGB(), len(trace.Requests), trace.Days)

	// Build a placement instance from the first week of history: aggregate
	// disk twice the library, 1 Gb/s links, link constraints at the two
	// busiest hours.
	builder := &vodplace.DemandBuilder{
		G: g, Lib: lib,
		DiskGB:      vodplace.UniformDisk(lib, 10, 2.0),
		LinkCapMbps: vodplace.UniformLinks(g, 1000),
	}
	inst, err := builder.Instance(trace, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Solve: EPF decomposition + integer rounding.
	res, err := vodplace.SolveInteger(inst, vodplace.SolverOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placement: objective %.0f GB·hop, %.1f%% above the Lagrangian bound\n",
		res.Objective, 100*res.Gap)
	// The disk violation is over the default ε of 1 %: the LP point was
	// 0.98 % over, and the rounding took it past ε (EXPERIMENTS.md).
	fmt.Printf("violations: disk %.2f%%, link %.2f%%\n",
		100*res.Violation.Disk, 100*res.Violation.Link)

	one, multi := 0, 0
	for _, c := range res.Sol.Copies() {
		if c == 1 {
			one++
		} else {
			multi++
		}
	}
	fmt.Printf("copies: %d videos single-copy, %d replicated\n", one, multi)
	// Output:
	// library: 500 videos, 333 GB; trace: 12567 requests over 8 days
	// placement: objective 1121 GB·hop, 2.3% above the Lagrangian bound
	// violations: disk 1.11%, link 0.00%
	// copies: 342 videos single-copy, 158 replicated
}
