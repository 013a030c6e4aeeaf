package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestEndToEndLoopback is the full serve/load smoke: build both binaries,
// start a seeded daemon on an ephemeral port, run vodload against it with
// demand bursts, and assert nonzero throughput, zero routing errors, and at
// least one audit-gated warm re-solve swapped in mid-run; then replay the
// deployment's trace against the same daemon with zero routing errors.
// SIGTERM must then shut the daemon down cleanly (exit 0).
func TestEndToEndLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two binaries and solves placements")
	}
	dir := t.TempDir()
	loadBin := buildLoadBinary(t)
	servedBin := filepath.Join(dir, "vodserved")
	if out, err := exec.Command("go", "build", "-o", servedBin, "../vodserved").CombinedOutput(); err != nil {
		t.Fatalf("go build vodserved: %v\n%s", err, out)
	}

	addrFile := filepath.Join(dir, "addr")
	daemon := exec.Command(servedBin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-videos", "60", "-vhos", "8", "-passes", "200", "-eps", "0.02", "-seed", "1")
	var dout strings.Builder
	daemon.Stdout = &dout
	daemon.Stderr = &dout
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if daemon.Process != nil {
			daemon.Process.Kill() //nolint:errcheck
			daemon.Wait()         //nolint:errcheck
		}
	})

	deadline := time.Now().Add(60 * time.Second)
	var addr string
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never wrote its address\noutput:\n%s", dout.String())
		}
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	jsonPath := filepath.Join(dir, "load.json")
	load := exec.Command(loadBin,
		"-addr", addr, "-mode", "zipf", "-duration", "2s", "-concurrency", "4",
		"-updates", "2", "-update-size", "6", "-seed", "1",
		"-wait", "30s", "-json", jsonPath)
	if out, err := load.CombinedOutput(); err != nil {
		t.Fatalf("vodload: %v\n%s", err, out)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("parsing %s: %v\n%s", jsonPath, err, raw)
	}
	if sum.Requests == 0 {
		t.Error("zero throughput")
	}
	if sum.RouteErrors != 0 || sum.HTTPErrors != 0 {
		t.Errorf("errors during run: route %d, http %d", sum.RouteErrors, sum.HTTPErrors)
	}
	if sum.ServerRouteErrors != 0 {
		t.Errorf("server-side route errors: %d", sum.ServerRouteErrors)
	}
	if sum.SwapsObserved < 1 {
		t.Errorf("no snapshot swap observed (v%d -> v%d)\ndaemon output:\n%s",
			sum.VersionStart, sum.VersionEnd, dout.String())
	}
	if sum.LatencyMs.P99 <= 0 {
		t.Errorf("p99 latency not reported: %+v", sum.LatencyMs)
	}

	// Trace mode regenerates the daemon's workload from the shared
	// deployment recipe: with the daemon's -videos and -seed every replayed
	// request names a served video.
	tracePath := filepath.Join(dir, "trace.json")
	replay := exec.Command(loadBin,
		"-addr", addr, "-mode", "trace", "-videos", "60", "-seed", "1",
		"-duration", "1s", "-concurrency", "2", "-wait", "30s", "-json", tracePath)
	if out, err := replay.CombinedOutput(); err != nil {
		t.Fatalf("vodload -mode trace: %v\n%s", err, out)
	}
	if raw, err = os.ReadFile(tracePath); err != nil {
		t.Fatal(err)
	}
	var trace summary
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("parsing %s: %v\n%s", tracePath, err, raw)
	}
	if trace.Requests == 0 || trace.RouteErrors != 0 {
		t.Errorf("trace replay: %d requests, %d route errors", trace.Requests, trace.RouteErrors)
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited nonzero after SIGTERM: %v\noutput:\n%s", err, dout.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit\noutput:\n%s", dout.String())
	}
	if !strings.Contains(dout.String(), "clean shutdown") {
		t.Errorf("no 'clean shutdown' in daemon output:\n%s", dout.String())
	}
}
