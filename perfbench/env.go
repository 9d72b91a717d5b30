package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"adafl/internal/tensor"
)

// environment is recorded with every result: allocation counts depend on
// the GEMM worker count, and timings on the CPU and the filesystem the
// checkpoints land on.
type environment struct {
	CPU           string `json:"cpu"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	MatMulWorkers int    `json:"matmul_workers"`
	GoVersion     string `json:"go_version"`
	CheckpointFS  string `json:"checkpoint_fs"`
	CheckpointDir string `json:"checkpoint_dir"`
}

func readEnvironment(ckptDir string) environment {
	return environment{
		CPU:           cpuModel(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		MatMulWorkers: tensor.MatMulWorkers(),
		GoVersion:     runtime.Version(),
		CheckpointFS:  fsType(ckptDir),
		CheckpointDir: ckptDir,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType returns the filesystem type of the mount holding dir, from
// /proc/self/mountinfo ("unknown" where that is unavailable).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if r, err := filepath.EvalSymlinks(abs); err == nil {
		abs = r
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// id parent major:minor root mountpoint options... - fstype source opts
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		if !ok {
			continue
		}
		pf, qf := strings.Fields(pre), strings.Fields(post)
		if len(pf) < 5 || len(qf) < 1 {
			continue
		}
		mp := unescapeMount(pf[4])
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), qf[0]
		}
	}
	return typ
}

// unescapeMount undoes mountinfo's octal escapes (\040 for a space).
func unescapeMount(s string) string {
	if !strings.Contains(s, `\`) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+3 < len(s) {
			if v, err := strconv.ParseUint(s[i+1:i+4], 8, 8); err == nil {
				b.WriteByte(byte(v))
				i += 3
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// peakRSSMB returns the process's VmHWM in MB (0 where unavailable).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(v)
			if len(fs) >= 1 {
				kb, err := strconv.ParseFloat(fs[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
