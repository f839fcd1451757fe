package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
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

// provenance is printed with every result: what ran, where, and on how
// many samples, so a number can be traced back to its conditions.
type provenance struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	KernelSeeds []int64        `json:"kernel_seeds"`
	Traced      bool           `json:"traced"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	NumCPU      int            `json:"nproc"`
	CPUModel    string         `json:"cpu_model"`
	GitCommit   string         `json:"git_commit"`
	SourceSHA   string         `json:"source_sha256"`
	Workers     int            `json:"workers"`
	Clients     int            `json:"clients,omitempty"`
	Samples     map[string]int `json:"samples"`
	Notes       map[string]any `json:"notes,omitempty"`
	FailedFrac  float64        `json:"failed_frac"`
	Failures    []string       `json:"failures,omitempty"`
}

func newProvenance(workload string, seed int64, traced bool) *provenance {
	return &provenance{
		Workload:    workload,
		Seed:        seed,
		KernelSeeds: kernelSeeds(seed),
		Traced:      traced,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GitCommit:   gitCommit("."),
		SourceSHA:   sourceDigest("."),
		Workers:     runtime.GOMAXPROCS(0),
		Samples:     map[string]int{},
		Notes:       map[string]any{},
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// gitCommit resolves HEAD from the .git directory without running git;
// a checkout without one (an exported tree) reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout
// (outside hidden directories), identifying the code measured even
// where no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stealTime returns the time the hypervisor ran something else while
// this machine's CPUs wanted to run (the steal column of /proc/stat),
// or 0 where it is not reported.  A run whose wall time grows while its
// CPU time does not usually shows it here.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / 100 // USER_HZ
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
