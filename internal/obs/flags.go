package obs

import (
	"flag"
	"fmt"
	"os"
)

// Flags holds the telemetry CLI surface shared by vodplace, vodexp and
// vodserved. Both flags default off; either one enables the recorder.
type Flags struct {
	TraceOut  string // JSONL event trace destination ("-" = stdout)
	DebugAddr string // live HTTP endpoint (/metrics, /debug/pprof)
}

// Register installs the telemetry flags on fs and returns the destination
// struct to pass to Start after fs has been parsed.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a JSONL telemetry trace to this file (\"-\" for stdout)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	return f
}

// Start builds the recorder the parsed flags ask for. When both flags are
// off it returns (nil, no-op stop, nil): the nil recorder threads through
// the solver and simulator as the disabled no-op. Otherwise the returned
// stop shuts the debug server down (if any) and flushes and closes the
// trace sink. Call stop on every exit path, including signal-triggered
// ones, so an interrupted run still keeps its buffered trace.
func Start(f *Flags) (*Recorder, func() error, error) {
	if f.TraceOut == "" && f.DebugAddr == "" {
		return nil, func() error { return nil }, nil
	}

	var sink *os.File
	switch f.TraceOut {
	case "":
	case "-":
		sink = os.Stdout
	default:
		out, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, nil, fmt.Errorf("trace-out: %w", err)
		}
		sink = out
	}
	var rec *Recorder
	if sink != nil {
		rec = New(sink)
		if sink == os.Stdout {
			rec.c = nil // flush stdout on stop, but never close it
		}
	} else {
		rec = New(nil)
	}

	var shutdown func() error
	if f.DebugAddr != "" {
		addr, closeDebug, err := ServeDebug(f.DebugAddr, rec)
		if err != nil {
			rec.Close() //nolint:errcheck // already failing
			return nil, nil, err
		}
		shutdown = closeDebug
		fmt.Fprintf(os.Stderr, "debug endpoint listening on http://%s (/metrics /debug/pprof)\n", addr)
	}

	stop := func() error {
		var first error
		if shutdown != nil {
			first = shutdown()
		}
		if err := rec.Close(); err != nil && first == nil {
			first = err
		}
		return first
	}
	return rec, stop, nil
}
