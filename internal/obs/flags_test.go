package obs

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
)

// TestStartAllFlags runs the diagnostics start the CLIs share with all five
// flags set: one stop must flush the telemetry trace and all three profiles.
func TestStartAllFlags(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{
		"-trace-out", path("trace.jsonl"), "-debug-addr", "127.0.0.1:0",
		"-cpuprofile", path("cpu.pprof"), "-memprofile", path("mem.pprof"),
		"-traceprofile", path("exec.trace"),
	}); err != nil {
		t.Fatal(err)
	}
	rec, stop, err := Start(f)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Enabled() {
		t.Fatal("recorder disabled with -trace-out and -debug-addr set")
	}
	rec.RecordEPFPass(samplePass("epf", 1))
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, name := range []string{"trace.jsonl", "cpu.pprof", "mem.pprof", "exec.trace"} {
		if st, err := os.Stat(path(name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty after stop (err %v)", name, err)
		}
	}
}

// TestStartFailureStopsProfiles: when the recorder cannot start, Start
// returns the error with the CPU profile it had already started stopped
// again — a fresh profile can start.
func TestStartFailureStopsProfiles(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{TraceOut: filepath.Join(dir, "missing", "trace.jsonl")}
	f.Prof.CPU = filepath.Join(dir, "cpu.pprof")
	if _, _, err := Start(f); err == nil {
		t.Fatal("Start succeeded with an unwritable -trace-out")
	}
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("CPU profile still running after the failed Start: %v", err)
	}
	pprof.StopCPUProfile()
}
