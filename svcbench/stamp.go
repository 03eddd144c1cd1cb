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
	"strings"
	"time"
)

// stamp identifies what produced a result set and where.
type stamp struct {
	// Commit is the git commit run.sh found, or "unknown" outside a
	// git checkout; SourceDigest identifies the code either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Seed         int64  `json:"seed"`
	Workload     string `json:"workload"`
	Time         string `json:"time"`
}

func newStamp(seed int64, workload string) stamp {
	commit := os.Getenv("SVCBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return stamp{
		Commit:       commit,
		SourceDigest: sourceDigest("."),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Seed:         seed,
		Workload:     workload,
		Time:         time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceDigest hashes the Go sources and module files under root
// (paths and contents, in walk order), skipping hidden directories
// such as build output. Two trees with equal digests build the same
// program.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
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
