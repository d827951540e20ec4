// Package cli holds the shared plumbing of the command-line tools:
// workload loading by name (generated or SWF), with the paper's
// preprocessing (width filtering) applied consistently.
package cli

import (
	"fmt"
	"io"
	"os"

	"jobsched/internal/job"
	"jobsched/internal/trace"
	"jobsched/internal/workload"
)

// LoadOptions selects a workload for a command.
type LoadOptions struct {
	// Kind is one of "ctc", "prob", "random", "feitelson", or "swf".
	Kind string
	// Path is the SWF input file (Kind == "swf").
	Path string
	// Jobs is the number of jobs for generated workloads.
	Jobs int
	// MachineNodes filters jobs wider than the machine (Section 6.1).
	MachineNodes int
	// Seed drives generation.
	Seed int64
}

// Load produces the workload. The returned count is the number of jobs
// deleted as wider than the machine.
func Load(opt LoadOptions) ([]*job.Job, int, error) {
	if opt.MachineNodes <= 0 {
		return nil, 0, fmt.Errorf("cli: machine nodes must be positive")
	}
	switch opt.Kind {
	case "ctc", "prob":
		if opt.Jobs <= 0 {
			return nil, 0, fmt.Errorf("cli: %s workload needs a job count", opt.Kind)
		}
		cfg := workload.DefaultCTCConfig()
		cfg.SpanSeconds = cfg.SpanSeconds * int64(opt.Jobs) / int64(cfg.Jobs)
		cfg.Jobs = opt.Jobs
		cfg.Seed = opt.Seed
		jobs, removed := trace.FilterMaxNodes(workload.CTC(cfg), opt.MachineNodes)
		if opt.Kind == "ctc" {
			return jobs, removed, nil
		}
		jobs, err := workload.Probabilistic(jobs, opt.Jobs, opt.Seed+1)
		return jobs, removed, err
	case "random":
		if opt.Jobs <= 0 {
			return nil, 0, fmt.Errorf("cli: random workload needs a job count")
		}
		cfg := workload.DefaultRandomizedConfig()
		cfg.Jobs = opt.Jobs
		cfg.MaxNodes = opt.MachineNodes
		cfg.Seed = opt.Seed
		return workload.Randomized(cfg), 0, nil
	case "feitelson":
		if opt.Jobs <= 0 {
			return nil, 0, fmt.Errorf("cli: feitelson workload needs a job count")
		}
		cfg := workload.DefaultFeitelsonConfig()
		cfg.Jobs = opt.Jobs
		cfg.MaxNodes = opt.MachineNodes
		cfg.Seed = opt.Seed
		return workload.Feitelson(cfg), 0, nil
	case "swf":
		if opt.Path == "" {
			return nil, 0, fmt.Errorf("cli: swf workload needs a file path")
		}
		f, err := os.Open(opt.Path)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		return loadSWF(f, opt.MachineNodes)
	default:
		return nil, 0, fmt.Errorf("cli: unknown workload kind %q", opt.Kind)
	}
}

// loadSWF parses an SWF stream and applies the width filter.
func loadSWF(r io.Reader, machineNodes int) ([]*job.Job, int, error) {
	_, jobs, err := trace.Read(r)
	if err != nil {
		return nil, 0, err
	}
	filtered, removed := trace.FilterMaxNodes(jobs, machineNodes)
	return filtered, removed, nil
}
