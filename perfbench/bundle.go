package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"litereconfig/internal/fixture"
)

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

// benchDir is the benchmark's own directory; its sources are not part of
// the module the model bundle is trained from.
const benchDir = "perfbench"

// sourceHashes hashes the repository's Go sources (every .go file plus
// the module file). module covers the litereconfig module alone and keys
// the model bundle; all additionally covers the benchmark's own sources
// and keys the recorded simulated metrics.
func sourceHashes(root string) (module, all string, err error) {
	var paths []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", "", fmt.Errorf("hash sources: %w", err)
	}
	sort.Strings(paths)
	hm, ha := sha256.New(), sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", "", fmt.Errorf("hash sources: %w", err)
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		add := func(h hash.Hash) {
			fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
			h.Write(data)
		}
		if !strings.HasPrefix(rel, benchDir+"/") {
			add(hm)
		}
		add(ha)
	}
	return hex.EncodeToString(hm.Sum(nil))[:20], hex.EncodeToString(ha.Sum(nil))[:20], nil
}

// bundleInfo is the sidecar written next to a cached bundle.
type bundleInfo struct {
	TrainS float64 `json:"train_s"`
}

// ensureBundle returns the path of the model bundle for the module
// source hash, training it first if this commit has none. Training runs
// in a child process so the measuring process never holds the training
// working set (max_rss_mb would otherwise include it). The bundle is the
// fixture.Small configuration; bundles are never shared across source
// hashes.
func ensureBundle(moduleHash string) (path string, info bundleInfo, err error) {
	dir := filepath.Join(buildDir, "bundles")
	path = filepath.Join(dir, moduleHash+".gob")
	side := filepath.Join(dir, moduleHash+".json")
	if _, err := os.Stat(path); err != nil {
		exe, err := os.Executable()
		if err != nil {
			return "", info, err
		}
		cmd := exec.Command(exe, "--train", path)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return "", info, fmt.Errorf("train bundle: %w", err)
		}
	}
	data, err := os.ReadFile(side)
	if err != nil {
		return "", info, fmt.Errorf("bundle sidecar: %w", err)
	}
	if err := json.Unmarshal(data, &info); err != nil {
		return "", info, fmt.Errorf("bundle sidecar %s: %w", side, err)
	}
	return path, info, nil
}

// trainBundle is the child-process side of ensureBundle: it trains the
// fixture.Small models, writes them to path (atomically, via a rename)
// and records the training time in the sidecar.
func trainBundle(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	set, err := fixture.Small()
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	trainS := time.Since(t0).Seconds()
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := set.Models.SaveFile(tmp); err != nil {
		return err
	}
	side := strings.TrimSuffix(path, ".gob") + ".json"
	data, err := json.Marshal(bundleInfo{TrainS: trainS})
	if err != nil {
		return err
	}
	if err := os.WriteFile(side, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trained bundle %s in %.1fs\n", path, trainS)
	return nil
}
