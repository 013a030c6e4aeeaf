package main

import (
	"fmt"
	"io"
)

// smokeWorkload is a workload moved to the serve-smoke shape, with batches
// and round counts to match: what the tests and --selfcheck run.
func smokeWorkload(name string) *workloadSpec {
	w := *findWorkload(name)
	w.shape = smokeShape
	w.batch = min(w.batch, 15)
	w.roundsPerSec = 4
	return &w
}

// selfCheck runs steady-hot at the serve-smoke shape twice, traced, and
// fails unless every exact-repeat count and the final objective agree
// between the two runs, and every replay agreed with the server's own solve.
// It guards the two things the layer attribution rests on: the closed-loop
// writer really does make solver work a function of the seed alone, and the
// replay really does repeat the resolver's solve.
func selfCheck(stdout, stderr io.Writer) int {
	w := smokeWorkload("steady-hot")
	var runs [2]*result
	for i := range runs {
		var err error
		if runs[i], err = runWorkload(w, 1, instanceSeed, 1, newTracer()); err != nil {
			fmt.Fprintf(stderr, "bench: selfcheck run %d: %v\n", i+1, err)
			return 1
		}
		for _, f := range runs[i].failures {
			fmt.Fprintf(stderr, "bench: selfcheck run %d failed: %s\n", i+1, f)
		}
	}
	bad := runs[0].failed + runs[1].failed
	check := func(name string, a, b float64) {
		mark := "ok"
		if a != b {
			mark = "DIFFERS"
			bad++
		}
		fmt.Fprintf(stdout, "%-24s %20v %20v  %s\n", name, a, b, mark)
	}
	fmt.Fprintf(stdout, "%-24s %20s %20s\n", "exact count", "run 1", "run 2")
	for _, s := range perLayer {
		if s.exact {
			check(s.name, runs[0].perLayer[s.name], runs[1].perLayer[s.name])
		}
	}
	check("objective_gb", runs[0].endToEnd["objective_gb"], runs[1].endToEnd["objective_gb"])
	if runs[0].perLayer["epf.passes"] == 0 {
		fmt.Fprintln(stdout, "no resolve was replayed")
		bad++
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "selfcheck FAILED: %d differences or failed operations\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck ok: solver work repeats exactly and every replay matched the server")
	return 0
}
