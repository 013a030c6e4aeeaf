package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden files")

// timingRe matches wall-clock durations in CLI output; they are the only
// non-deterministic part of a fixed-seed run.
var timingRe = regexp.MustCompile(`\d+\.\d+s`)

func normalize(b []byte) []byte { return timingRe.ReplaceAll(b, []byte("X.Xs")) }

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vodplace")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestGolden pins the complete CLI output of fixed-seed runs. The solver is
// deterministic at any worker count, so everything except wall time is
// byte-stable; regenerate with `go test ./cmd/vodplace -run Golden -update`
// after an intentional output change.
func TestGolden(t *testing.T) {
	bin := buildBinary(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"tiny_seed7", []string{"-videos", "30", "-vhos", "6", "-passes", "30", "-seed", "7"}},
		{"small_fast", []string{"-videos", "60", "-vhos", "8", "-passes", "40", "-seed", "1", "-verify"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			got := normalize(out)
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (regenerate with -update if intended)\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
			}
		})
	}
}
