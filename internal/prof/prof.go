// Package prof is the profiler behind obs.Start: the standard pprof/trace
// collectors the CLIs' -cpuprofile, -memprofile and -traceprofile flags
// (declared by obs.Register) ask for. Start opens whichever outputs were
// requested and returns a single Stop to flush them on the way out.
// Profiles are written with the stock runtime encoders, so the files feed
// directly into `go tool pprof` and `go tool trace`.
package prof

import (
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the three output paths. Empty means "don't collect".
type Flags struct {
	CPU   string
	Mem   string
	Trace string
}

// Routes installs the live pprof handlers (/debug/pprof/*) on mux. The
// debug HTTP endpoint uses its own mux rather than http.DefaultServeMux,
// so the handlers net/http/pprof registers on import never become
// reachable by accident; this wires them explicitly.
func Routes(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
}

// Start begins whichever collectors f requests. The returned Stop must run
// exactly once before the process exits (defer it right after a successful
// Start); it stops the CPU profile and trace and takes the heap snapshot.
// On error every partially opened collector is shut down before returning,
// so the caller never has to clean up.
func Start(f *Flags) (stop func() error, err error) {
	var cleanup []func() error
	fail := func(err error) (func() error, error) {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]() //nolint:errcheck // already failing; report the first error
		}
		return nil, err
	}

	if f.CPU != "" {
		out, err := os.Create(f.CPU)
		if err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		cleanup = append(cleanup, func() error {
			pprof.StopCPUProfile()
			return out.Close()
		})
	}
	if f.Trace != "" {
		out, err := os.Create(f.Trace)
		if err != nil {
			return fail(fmt.Errorf("traceprofile: %w", err))
		}
		if err := trace.Start(out); err != nil {
			out.Close()
			return fail(fmt.Errorf("traceprofile: %w", err))
		}
		cleanup = append(cleanup, func() error {
			trace.Stop()
			return out.Close()
		})
	}
	if f.Mem != "" {
		path := f.Mem
		cleanup = append(cleanup, func() error {
			out, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			// One final GC so the snapshot reflects live steady-state heap,
			// not garbage awaiting collection.
			runtime.GC()
			if err := pprof.WriteHeapProfile(out); err != nil {
				out.Close()
				return fmt.Errorf("memprofile: %w", err)
			}
			return out.Close()
		})
	}

	return func() error {
		var first error
		for i := len(cleanup) - 1; i >= 0; i-- {
			if err := cleanup[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
