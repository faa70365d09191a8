package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"petscfun3d/internal/stream"
)

// fingerprint identifies the host and the build a record came from.
type fingerprint struct {
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"num_cpu"`
	GitCommit    string  `json:"git_commit"`
	BudgetSHA256 string  `json:"codegen_budget_sha256"`
	LLCMiB       float64 `json:"llc_mib"`
	StreamMiB    float64 `json:"stream_array_mib"`
	TriadMBps    float64 `json:"stream_triad_mbps"`
}

// hostFingerprint measures STREAM Triad on arrays of at least four times
// the last-level cache, so the figure is memory bandwidth, not cache
// bandwidth.
func hostFingerprint(root string) (fingerprint, error) {
	fp := fingerprint{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitCommit:  gitCommit(root),
	}
	budget, err := os.ReadFile(filepath.Join(root, "codegen.budget.json"))
	if err != nil {
		return fp, err
	}
	sum := sha256.Sum256(budget)
	fp.BudgetSHA256 = hex.EncodeToString(sum[:])
	llc := lastLevelCacheBytes()
	fp.LLCMiB = float64(llc) / (1 << 20)
	n := 4 * llc / 8
	fp.StreamMiB = float64(n*8) / (1 << 20)
	res, err := stream.Run(int(n), 3)
	if err != nil {
		return fp, err
	}
	for _, r := range res {
		if r.Kernel == "Triad" {
			fp.TriadMBps = r.Bandwidth / 1e6
		}
	}
	return fp, nil
}

// lastLevelCacheBytes reads the largest cache level's size from sysfs,
// assuming 128 MiB where the host does not say.
func lastLevelCacheBytes() int64 {
	const fallback = 128 << 20
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, bestLevel := int64(0), 0
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil {
			continue
		}
		bytes, err := parseCacheSize(strings.TrimSpace(string(sz)))
		if err != nil {
			continue
		}
		if level > bestLevel || (level == bestLevel && bytes > best) {
			best, bestLevel = bytes, level
		}
	}
	if best == 0 {
		return fallback
	}
	return best
}

// parseCacheSize parses sysfs cache sizes such as "107520K" or "4M".
func parseCacheSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cache size %q: %w", s, err)
	}
	return v * mult, nil
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "unknown".
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}
