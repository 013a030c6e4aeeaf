package obs

import (
	"flag"
	"fmt"
	"os"
)

// Flags holds the telemetry CLI surface shared by vodplace, vodexp and
// vodserved. All three flags default off; any one of them enables the
// recorder.
type Flags struct {
	TraceOut  string // JSONL event trace destination ("-" = stdout)
	Metrics   bool   // publish the registry via expvar + dump it on exit
	DebugAddr string // live HTTP endpoint (/debug/vars, /debug/pprof, /progress)
}

// Register installs the telemetry flags on fs and returns the destination
// struct to pass to Start after fs has been parsed.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a JSONL telemetry trace to this file (\"-\" for stdout)")
	fs.BoolVar(&f.Metrics, "metrics", false, "publish solver/simulator metrics via expvar and print them on exit")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve /debug/vars, /debug/pprof and /progress on this address (e.g. localhost:6060)")
	return f
}

// Start builds the recorder the parsed flags ask for. When every flag is
// off it returns (nil, no-op stop, nil): the nil recorder threads through
// the solver and simulator as the disabled no-op. Otherwise the returned
// stop shuts the debug server down (if any), flushes and closes the trace
// sink, and — under -metrics — dumps the registry JSON to stderr. Call stop
// on every exit path, including signal-triggered ones, so an interrupted
// run still keeps its buffered trace.
func Start(f *Flags) (*Recorder, func() error, error) {
	if f.TraceOut == "" && !f.Metrics && f.DebugAddr == "" {
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

	// The debug endpoint serves /debug/vars from the process-global expvar
	// map, so the registry must be published for it too — not just under
	// -metrics.
	if f.Metrics || f.DebugAddr != "" {
		rec.Metrics().Publish("vodplace")
	}
	var shutdown func() error
	if f.DebugAddr != "" {
		var err error
		shutdown, err = ServeDebug(f.DebugAddr, rec)
		if err != nil {
			rec.Close() //nolint:errcheck // already failing
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "debug endpoint listening on http://%s (/debug/vars /debug/pprof /progress)\n", f.DebugAddr)
	}

	stop := func() error {
		var first error
		if shutdown != nil {
			first = shutdown()
		}
		if err := rec.Close(); err != nil && first == nil {
			first = err
		}
		if f.Metrics {
			fmt.Fprintf(os.Stderr, "metrics: %s\n", rec.Metrics().String())
		}
		return first
	}
	return rec, stop, nil
}
