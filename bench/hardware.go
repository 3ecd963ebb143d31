package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"rlsched/internal/stats"
)

// hardware is recorded with every result: numbers from different machines
// are not comparable, and the WAL figures mean nothing without the cost of
// an fsync on the filesystem that held the checkpoint directory.
type hardware struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	FsyncUS    float64 `json:"disk.fsync_us"`
}

func identify(dir string) hardware {
	return hardware{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		FsyncUS:    fsyncMicros(dir, 32),
	}
}

func (h hardware) print(w io.Writer) {
	fmt.Fprintf(w, "hardware: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s disk.fsync_us=%.1f\n",
		h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.Commit, h.FsyncUS)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision stamped into the binary, else what git says about
// the working directory, else "unknown" (a checkout that is not a
// repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			if st.Key == "vcs.revision" && st.Value != "" {
				return st.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// fsyncMicros is the median cost of the benchmark's own 256-byte append +
// fsync in dir, in microseconds (0 when dir cannot be written).
func fsyncMicros(dir string, n int) float64 {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0
	}
	path := filepath.Join(dir, "fsync-probe-"+strconv.Itoa(os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return 0
	}
	defer os.Remove(path)
	defer f.Close()
	block := make([]byte, 256)
	costs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		costs = append(costs, us(time.Since(t0)))
	}
	return stats.Median(costs)
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// memDelta is what the process allocated and paused for between two
// readings of runtime.MemStats.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// report sets the proc.* metrics for ops operations since startMem.
func (m *memDelta) report(r *run, ops float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	if ops < 1 {
		ops = 1
	}
	r.set("proc.alloc_bytes_per_op", float64(now.TotalAlloc-m.before.TotalAlloc)/ops, "whole process, generator included")
	r.set("proc.allocs_per_op", float64(now.Mallocs-m.before.Mallocs)/ops)
	r.set("proc.gc_pause_total_ms", float64(now.PauseTotalNs-m.before.PauseTotalNs)/1e6)
	r.set("proc.peak_rss_mb", peakRSSMB())
}
