// Package faults generates hardware-outage schedules for the simulator:
// seeded stochastic node-failure processes (exponential or Weibull
// MTBF/MTTR) and scheduled maintenance drains, compiled deterministically
// into a validated []sim.Failure.
//
// The paper's Section 2 names machine influences "which cannot be
// controlled by the scheduling system"; hand-written failure lists cover
// unit tests, but failure-sweep experiments need *models*: a mean time
// between failures, a mean time to repair, a shape knob for burstiness,
// and maintenance windows that — unlike surprise failures — are announced
// to the scheduler in advance so failure-aware backfilling can reserve
// around them (sched.Config.Announced).
//
// Everything is reproducible: the same Config yields bit-identical plans
// on every run and platform, because all randomness flows from
// stats.Split(Seed, stream) and sampling order is fixed (every candidate
// event consumes its random draws even when the concurrency cap later
// rejects it).
package faults

import (
	"fmt"
	"math"

	"jobsched/internal/job"
	"jobsched/internal/sim"
	"jobsched/internal/stats"
)

// Window is a scheduled maintenance drain: Nodes nodes are taken down at
// At for Duration seconds, optionally recurring every Every seconds.
// Unlike stochastic failures, windows are announced: they appear in
// Plan.Announced so schedulers can plan around them.
type Window struct {
	// At is the onset of the first occurrence (seconds, >= 0).
	At int64
	// Duration is the length of each occurrence (seconds, > 0).
	Duration int64
	// Nodes is how many nodes the drain takes down (1..MachineNodes).
	Nodes int
	// Every is the recurrence period (0 = one-shot).
	Every int64
	// Count bounds the number of occurrences when Every > 0;
	// 0 means recur until Config.Horizon.
	Count int
}

// Config parameterizes a failure plan.
type Config struct {
	// MachineNodes is the machine size the plan must respect.
	MachineNodes int
	// Horizon bounds event onsets: no failure or window occurrence starts
	// at or after Horizon. Required for stochastic failures and unbounded
	// recurring windows.
	Horizon int64
	// Seed drives all randomness (two independent streams are derived:
	// failure gaps and repair durations).
	Seed int64

	// MTBF is the mean time between stochastic failure onsets in seconds
	// (0 disables the stochastic process).
	MTBF float64
	// MTTR is the mean time to repair in seconds (required when MTBF > 0).
	MTTR float64
	// FailShape is the Weibull shape of the inter-failure gaps:
	// 1 (or 0, the default) is exponential — the memoryless baseline;
	// < 1 yields bursty failures, > 1 regular wear-out style failures.
	FailShape float64
	// RepairShape is the Weibull shape of the repair durations
	// (0 defaults to 1 = exponential).
	RepairShape float64
	// NodesPerFailure is how many nodes one stochastic failure takes down
	// (0 defaults to 1).
	NodesPerFailure int
	// MaxDownFraction caps the fraction of the machine that stochastic
	// failures may hold down simultaneously (counting overlap with
	// maintenance windows); candidate events beyond the cap are dropped.
	// 0 defaults to 0.5; the cap keeps generated plans absorbable so
	// sim.Run never faces more concurrent downtime than the machine.
	MaxDownFraction float64

	// Maintenance lists announced drain windows.
	Maintenance []Window
}

// Plan is a compiled failure schedule. Failures is everything the engine
// injects (stochastic outages plus maintenance occurrences), validated
// and sorted by onset; Announced is the maintenance subset — the windows
// known in advance — in the form schedulers accept.
type Plan struct {
	Failures  []sim.Failure
	Announced []sim.Failure
}

// Generate compiles the configuration into a validated failure plan.
// Identical configurations yield identical plans.
func Generate(cfg Config) (Plan, error) {
	if cfg.MachineNodes <= 0 {
		return Plan{}, fmt.Errorf("faults: machine needs at least one node")
	}
	if cfg.MTBF < 0 || cfg.MTTR < 0 {
		return Plan{}, fmt.Errorf("faults: MTBF/MTTR must be >= 0")
	}
	if cfg.MTBF > 0 && cfg.MTTR == 0 {
		return Plan{}, fmt.Errorf("faults: MTBF %.0f needs a positive MTTR", cfg.MTBF)
	}
	if cfg.MTBF > 0 && cfg.Horizon <= 0 {
		return Plan{}, fmt.Errorf("faults: stochastic failures need a positive horizon")
	}
	nodesPer := cfg.NodesPerFailure
	if nodesPer == 0 {
		nodesPer = 1
	}
	if nodesPer < 0 || nodesPer > cfg.MachineNodes {
		return Plan{}, fmt.Errorf("faults: %d nodes per failure on a %d-node machine",
			cfg.NodesPerFailure, cfg.MachineNodes)
	}
	frac := cfg.MaxDownFraction
	if frac == 0 {
		frac = 0.5
	}
	if frac < 0 || frac > 1 || math.IsNaN(frac) {
		return Plan{}, fmt.Errorf("faults: MaxDownFraction %v outside (0, 1]", cfg.MaxDownFraction)
	}
	capNodes := int(frac * float64(cfg.MachineNodes))
	if capNodes < 1 {
		capNodes = 1
	}

	announced, err := expandMaintenance(cfg)
	if err != nil {
		return Plan{}, err
	}

	all := append([]sim.Failure(nil), announced...)
	if cfg.MTBF > 0 {
		// Stream 0: inter-failure gaps; stream 1: repair durations.
		gaps := stats.Split(cfg.Seed, 0)
		repairs := stats.Split(cfg.Seed, 1)
		gapDist, err := weibullWithMean(cfg.MTBF, cfg.FailShape)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: failure process: %w", err)
		}
		repDist, err := weibullWithMean(cfg.MTTR, cfg.RepairShape)
		if err != nil {
			return Plan{}, fmt.Errorf("faults: repair process: %w", err)
		}
		var t int64
		for {
			// Both draws happen before the cap check so that widening or
			// narrowing the cap never shifts the random stream of later
			// events — plans stay comparable across cap settings.
			gap := toSeconds(gapDist.Sample(gaps))
			dur := toSeconds(repDist.Sample(repairs))
			t = job.AddSat(t, gap)
			if t >= cfg.Horizon {
				break
			}
			end := job.AddSat(t, dur)
			n := capNodes - maxDownOverlap(all, t, end)
			if n > nodesPer {
				n = nodesPer
			}
			if n <= 0 {
				continue // cap saturated during this outage: drop it
			}
			all = append(all, sim.Failure{At: t, Nodes: n, Duration: dur})
		}
	}

	failures, err := sim.ValidateFailures(all, cfg.MachineNodes)
	if err != nil {
		return Plan{}, fmt.Errorf("faults: generated plan invalid: %w", err)
	}
	ann, err := sim.ValidateFailures(announced, cfg.MachineNodes)
	if err != nil {
		return Plan{}, fmt.Errorf("faults: maintenance plan invalid: %w", err)
	}
	return Plan{Failures: failures, Announced: ann}, nil
}

// expandMaintenance unrolls recurring windows into concrete occurrences.
func expandMaintenance(cfg Config) ([]sim.Failure, error) {
	var out []sim.Failure
	for i, w := range cfg.Maintenance {
		if w.Nodes <= 0 || w.Nodes > cfg.MachineNodes {
			return nil, fmt.Errorf("faults: window %d drains %d of %d nodes", i, w.Nodes, cfg.MachineNodes)
		}
		if w.At < 0 || w.Duration <= 0 {
			return nil, fmt.Errorf("faults: window %d needs At >= 0 and positive duration", i)
		}
		if w.Every < 0 || w.Count < 0 {
			return nil, fmt.Errorf("faults: window %d has negative recurrence", i)
		}
		if w.Every == 0 {
			out = append(out, sim.Failure{At: w.At, Nodes: w.Nodes, Duration: w.Duration})
			continue
		}
		if w.Every <= w.Duration {
			return nil, fmt.Errorf("faults: window %d recurs every %d s but lasts %d s", i, w.Every, w.Duration)
		}
		if w.Count == 0 && cfg.Horizon <= 0 {
			return nil, fmt.Errorf("faults: unbounded recurring window %d needs a horizon", i)
		}
		at := w.At
		for k := 0; ; k++ {
			if w.Count > 0 && k >= w.Count {
				break
			}
			if cfg.Horizon > 0 && at >= cfg.Horizon {
				break
			}
			out = append(out, sim.Failure{At: at, Nodes: w.Nodes, Duration: w.Duration})
			at = job.AddSat(at, w.Every)
		}
	}
	return out, nil
}

// weibullWithMean builds a Weibull with the given mean and shape
// (shape <= 0 defaults to 1, the exponential distribution).
func weibullWithMean(mean, shape float64) (stats.Weibull, error) {
	if mean <= 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return stats.Weibull{}, fmt.Errorf("mean %v must be positive and finite", mean)
	}
	if shape == 0 {
		shape = 1
	}
	if shape < 0 || math.IsNaN(shape) || math.IsInf(shape, 0) {
		return stats.Weibull{}, fmt.Errorf("shape %v must be positive and finite", shape)
	}
	// mean = λ·Γ(1+1/k)  =>  λ = mean / Γ(1+1/k).
	g := math.Gamma(1 + 1/shape)
	if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		return stats.Weibull{}, fmt.Errorf("shape %v is numerically degenerate", shape)
	}
	return stats.Weibull{K: shape, Lambda: mean / g}, nil
}

// toSeconds rounds a sampled duration to whole seconds, clamped to >= 1
// (the simulator's clock is integral and zero-length events are invalid)
// and saturating far below MaxInt64 so later additions cannot wrap.
func toSeconds(x float64) int64 {
	if math.IsNaN(x) || x < 1 {
		return 1
	}
	if x >= math.MaxInt64/4 {
		return math.MaxInt64 / 4
	}
	return int64(math.Round(x))
}

// maxDownOverlap returns the maximum number of nodes already down at any
// instant of [at, end) under the accepted failures. Down-counts change
// only at failure onsets, so scanning `at` plus every onset inside the
// interval is exact. Quadratic in the plan size — fine for the plan
// lengths real sweeps use (thousands), and generation runs once per
// experiment, not per cell.
func maxDownOverlap(fs []sim.Failure, at, end int64) int {
	max := downAt(fs, at)
	for _, f := range fs {
		if f.At > at && f.At < end {
			if d := downAt(fs, f.At); d > max {
				max = d
			}
		}
	}
	return max
}

// downAt returns the number of nodes down at instant t.
func downAt(fs []sim.Failure, t int64) int {
	down := 0
	for _, f := range fs {
		if f.At <= t && t < job.AddSat(f.At, f.Duration) {
			down += f.Nodes
		}
	}
	return down
}
