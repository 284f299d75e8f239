package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// host is the fingerprint stamped on every result, so numbers from
// different machines or builds are never compared by accident.
type host struct {
	CPU    string
	NProc  int
	Go     string
	Commit string
}

// fingerprint reads the CPU model, the CPU count, the Go version, and
// the commit. A build from a modified git checkout is stamped with the
// commit plus "+dirty:" and the digest of the program's sources under
// root; a build outside a git checkout has no VCS stamp and is stamped
// "tree:" and the digest. Two results thus say whether they measured the
// same code.
func fingerprint(root string) host {
	h := host{CPU: cpuModel(), NProc: runtime.NumCPU(), Go: runtime.Version(), Commit: "unknown"}
	var rev string
	modified := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if rev != "" && !modified {
		h.Commit = rev
		return h
	}
	d, err := treeDigest(root)
	switch {
	case err != nil && rev != "":
		h.Commit = rev + "+dirty"
	case err != nil:
	case rev != "":
		h.Commit = rev + "+dirty:" + d
	default:
		h.Commit = "tree:" + d
	}
	return h
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

// treeDigest hashes go.mod and every .go file under root, skipping
// hidden directories, in path order.
func treeDigest(root string) (string, error) {
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
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:12], nil
}

// rssSampler reads the process's resident set every tick and keeps the
// largest reading of each second.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

func startRSS(tick time.Duration) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(tick)
		defer t.Stop()
		second := time.Now()
		peak := 0.0
		for {
			select {
			case <-r.stop:
				if peak > 0 {
					r.peaks = append(r.peaks, peak)
				}
				return
			case now := <-t.C:
				if v, err := rssMiB(); err == nil && v > peak {
					peak = v
				}
				if now.Sub(second) >= time.Second {
					r.peaks = append(r.peaks, peak)
					second, peak = now, 0
				}
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the per-second peaks in MiB.
func (r *rssSampler) finish() []float64 {
	close(r.stop)
	<-r.done
	return r.peaks
}

// rssMiB reads the current resident set from /proc/self/statm.
func rssMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
