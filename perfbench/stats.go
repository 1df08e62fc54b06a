package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stealEvery is how often a window samples the host's steal time.
const stealEvery = 100 * time.Millisecond

// stealSample is the host's cumulative steal time at one instant of a
// window: CPU time the hypervisor gave other tenants while this VM's
// CPUs were ready to run.
type stealSample struct {
	at    time.Duration // since the window's start
	ticks int64         // /proc/stat clock ticks, summed over CPUs
}

// readSteal returns the cumulative steal ticks of all CPUs, or 0 where
// /proc/stat does not report steal.
func readSteal() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// stealSampler reads the steal time every stealEvery until it is ended.
type stealSampler struct {
	stop chan struct{}
	done chan []stealAt
}

type stealAt struct {
	t     time.Time
	ticks int64
}

func startSteal() *stealSampler {
	s := &stealSampler{stop: make(chan struct{}), done: make(chan []stealAt, 1)}
	go func() {
		tk := time.NewTicker(stealEvery)
		defer tk.Stop()
		out := []stealAt{{time.Now(), readSteal()}}
		for {
			select {
			case <-s.stop:
				s.done <- append(out, stealAt{time.Now(), readSteal()})
				return
			case t := <-tk.C:
				out = append(out, stealAt{t, readSteal()})
			}
		}
	}()
	return s
}

// end stops the sampler, waits for it and returns its samples timed from
// start.
func (s *stealSampler) end(start time.Time) []stealSample {
	close(s.stop)
	raw := <-s.done
	out := make([]stealSample, len(raw))
	for i, r := range raw {
		out[i] = stealSample{at: r.t.Sub(start), ticks: r.ticks}
	}
	return out
}

// stealBetween is the steal between a and b, each read from the last
// sample at or before it (the first sample for a time before it).
func stealBetween(s []stealSample, a, b time.Duration) float64 {
	if len(s) == 0 {
		return 0
	}
	at := func(t time.Duration) int64 {
		i := sort.Search(len(s), func(i int) bool { return s[i].at > t })
		return s[max(i-1, 0)].ticks
	}
	return float64(at(b) - at(a))
}

// procSample is the process's resource use at one instant.
type procSample struct {
	cpu     time.Duration // user + system
	alloc   uint64        // cumulative heap bytes allocated
	numGC   uint32
	maxRSSK int64 // peak resident set, KiB
}

func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		numGC:   ms.NumGC,
		maxRSSK: ru.Maxrss,
	}
}

// hostInfo is the host block every result records.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit the run script found, or "unknown" outside
	// a git checkout; SourceHash identifies the measured sources either
	// way (SHA-256 over the module's .go files and go.mod).
	Commit     string `json:"commit"`
	SourceHash string `json:"source_hash"`
	Seed       int64  `json:"seed"`
}

func readHost(root string, seed int64) hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
		SourceHash: sourceHash(root),
		Seed:       seed,
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// sourceHash hashes the root module's go.mod and .go files outside the
// benchmark's own directory and hidden build directories, in path order.
func sourceHash(root string) string {
	sum := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && !strings.HasSuffix(rel, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		sum.Write([]byte(rel + "\x00"))
		sum.Write(data)
		return nil
	})
	return hex.EncodeToString(sum.Sum(nil))[:16]
}
