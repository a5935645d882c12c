// Package cmdutil holds the flag-value parsing and file plumbing the
// command-line tools share: model loading, device and policy lookup,
// float lists, fault specs and trace writing. Every helper returns an
// error for the caller to report; none exits the process.
package cmdutil

import (
	"fmt"
	"io"
	"log"
	"strconv"
	"strings"

	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/simlat"
)

// LoadModels reads the trained bundle at path (an lrtrain output), or
// trains the compact fixture set when path is empty.
func LoadModels(path string) (*sched.Models, error) {
	if path == "" {
		log.Printf("no model file given; training a compact model set (use lrtrain for the full pipeline)")
		set, err := fixture.Small()
		if err != nil {
			return nil, fmt.Errorf("training failed: %w", err)
		}
		return set.Models, nil
	}
	m, err := sched.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load models: %w", err)
	}
	log.Printf("loaded %s (%d branches)", path, len(m.Branches))
	return m, nil
}

// Device resolves a -mobile_device value.
func Device(name string) (simlat.Device, error) {
	dev, ok := simlat.DeviceByName(name)
	if !ok {
		return simlat.Device{}, fmt.Errorf("unknown device %q (want tx2 or xv)", name)
	}
	return dev, nil
}

// ParseFloats splits a comma-separated float list.
func ParseFloats(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParsePolicies parses a comma-separated -policies list through
// core.ParsePolicy. Forced-feature variants need a heavy feature per
// stream, which a policy list cannot carry, so they are rejected.
func ParsePolicies(s string) ([]core.Policy, error) {
	var out []core.Policy
	for _, tok := range strings.Split(s, ",") {
		p, _, err := core.ParsePolicy(tok)
		if err != nil || p == core.PolicyForceFeature {
			return nil, fmt.Errorf("unknown policy %q", tok)
		}
		out = append(out, p)
	}
	return out, nil
}

// Faults parses a single-board -faults spec; an empty spec means no
// faults, and a spec without its own seed= takes seed.
func Faults(spec string, seed int64) (*fault.Config, error) {
	if spec == "" {
		return nil, nil
	}
	c, err := fault.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("bad --faults: %w", err)
	}
	if c.Seed == 0 {
		c.Seed = seed
	}
	return c, nil
}

// BoardFaults parses a board-scoped -faults spec (see
// fault.ParseBoardSpecs), rejects labels that name no board, and gives
// every entry without its own seed= the run seed.
func BoardFaults(spec string, boards []string, seed int64) (map[string]*fault.Config, error) {
	specs, err := fault.ParseBoardSpecs(spec)
	if err == nil {
		err = fault.ValidateBoards(specs, boards)
	}
	if err != nil {
		return nil, fmt.Errorf("bad --faults: %w", err)
	}
	for _, c := range specs {
		if c.Seed == 0 {
			c.Seed = seed
		}
	}
	return specs, nil
}

// WriteTrace writes one JSON Lines trace to path through
// obs.CreateTrace, so a .gz suffix gzip-compresses it, and logs the
// record count n of what it wrote.
func WriteTrace(path string, write func(io.Writer) error, n int, what string) error {
	f, err := obs.CreateTrace(path)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	log.Printf("wrote %d %s to %s", n, what, path)
	return nil
}
