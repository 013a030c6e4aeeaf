package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// fingerprint says where and on what a result was measured. -compare
// refuses to ratio results whose hosts differ: BENCH_scale.json reads
// 0.41-0.52x for exactly that reason (baseline and current were taken on
// 2.70 and 2.10 GHz CPUs).
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	WallS      float64 `json:"wall_s"`
}

func hostFingerprint() fingerprint {
	commit := os.Getenv("BENCH_COMMIT") // set by run.sh
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

// sameHost reports whether two results may be compared as a ratio.
func (f fingerprint) sameHost(o fingerprint) bool {
	return f.CPU == o.CPU && f.NumCPU == o.NumCPU && f.GoMaxProcs == o.GoMaxProcs && f.GoVersion == o.GoVersion
}

func (f fingerprint) host() string {
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s", f.CPU, f.NumCPU, f.GoMaxProcs, f.GoVersion)
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when the file or the key is missing (not Linux).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM from /proc/self/status: %q", v)
	}
	return kb / 1024, nil
}
