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

// timingRe matches wall-clock durations; fixed-seed output is otherwise
// byte-stable.
var timingRe = regexp.MustCompile(`\d+\.\d+s`)

func normalize(b []byte) []byte { return timingRe.ReplaceAll(b, []byte("X.Xs")) }

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vodexp")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestGolden pins the output of fixed-seed experiment runs (the fast
// analysis experiments, so the suite stays cheap). Regenerate with
// `go test ./cmd/vodexp -run Golden -update` after an intentional change.
func TestGolden(t *testing.T) {
	bin := buildBinary(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		// fig2_quick/fig4_quick solve every period cold; fig2_fast runs the
		// same experiment with the default cross-period warm starts.
		{"list", []string{"-list"}},
		{"fig2_quick", []string{"-exp", "fig2", "-quick", "-verify", "-cold"}},
		{"fig4_quick", []string{"-exp", "fig4", "-quick", "-cold"}},
		{"fig2_fast", []string{"-exp", "fig2", "-quick", "-verify"}},
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
