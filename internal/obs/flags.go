package obs

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"vodplace/internal/prof"
)

// Flags holds the diagnostics CLI surface shared by vodplace, vodexp and
// vodserved: the telemetry recorder's two outputs and the three profiles.
// Every flag defaults off; either telemetry flag enables the recorder.
type Flags struct {
	TraceOut  string // JSONL event trace destination ("-" = stdout)
	DebugAddr string // live HTTP endpoint (/metrics, /debug/pprof)
	Prof      prof.Flags
}

// Register installs the five diagnostics flags on fs and returns the
// destination struct to pass to Start after fs has been parsed.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a JSONL telemetry trace to this file (\"-\" for stdout)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.Prof.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.Prof.Mem, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&f.Prof.Trace, "traceprofile", "", "write a runtime execution trace to this file")
	return f
}

// Start begins the profiles the parsed flags ask for, then builds the
// recorder. When both telemetry flags are off the recorder is nil: the nil
// recorder threads through the solver and simulator as the disabled no-op.
// The returned stop shuts the debug server down (if any), flushes and
// closes the trace sink, and then stops the profiles. Call it on every exit
// path, including signal-triggered ones, so an interrupted run still keeps
// its buffered trace and profiles. On error nothing is left running.
func Start(f *Flags) (*Recorder, func() error, error) {
	profStop, err := prof.Start(&f.Prof)
	if err != nil {
		return nil, nil, err
	}
	rec, recStop, err := startRecorder(f)
	if err != nil {
		profStop() //nolint:errcheck // already failing
		return nil, nil, err
	}
	return rec, func() error { return errors.Join(recStop(), profStop()) }, nil
}

// startRecorder builds the recorder behind -trace-out and -debug-addr.
func startRecorder(f *Flags) (*Recorder, func() error, error) {
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
