package sched

import (
	"cmp"
	"sort"

	"slices"

	"jobsched/internal/job"
)

// SMARTVariant selects the shelf-packing rule of SMART's step 2
// (Schwiegelshohn et al. [14]).
type SMARTVariant int

const (
	// FFIA is First Fit Increasing Area: bin jobs sorted by increasing
	// area (estimate × nodes), first-fit onto any shelf of the bin.
	FFIA SMARTVariant = iota
	// NFIW is Next Fit Increasing Width-to-Weight: bin jobs sorted by
	// increasing nodes/weight, next-fit onto the current shelf only.
	NFIW
)

func (v SMARTVariant) String() string {
	if v == FFIA {
		return "SMART-FFIA"
	}
	return "SMART-NFIW"
}

// SMARTOrder adapts the off-line SMART algorithm (Turek et al. [21]) to
// the on-line setting of the paper's Section 5.4: the algorithm is used
// only to order the jobs already submitted but not yet started; a greedy
// list schedule (possibly with backfilling) consumes that order. Job
// execution times are the user estimates; the plan is recomputed lazily
// (see replanner).
type SMARTOrder struct {
	variant SMARTVariant
	gamma   float64
	weight  job.WeightFunc
	machine int
	*replanner
}

// NewSMARTOrder builds the SMART order policy from the configuration.
func NewSMARTOrder(v SMARTVariant, cfg Config) *SMARTOrder {
	cfg = cfg.withDefaults()
	if cfg.SmartGamma <= 1 {
		panic("sched: SMART gamma must be > 1")
	}
	o := &SMARTOrder{
		variant: v,
		gamma:   cfg.SmartGamma,
		weight:  cfg.Weight,
		machine: cfg.MachineNodes,
	}
	o.replanner = newReplanner(cfg.RecomputeRatio, o.computePlan)
	return o
}

// Name implements Orderer.
func (o *SMARTOrder) Name() string { return o.variant.String() }

// shelf is one subschedule: all jobs on a shelf start concurrently.
type shelf struct {
	jobs      []*job.Job
	usedNodes int
	sumWeight float64
	maxTime   int64
}

func (s *shelf) add(j *job.Job, w float64) {
	s.jobs = append(s.jobs, j)
	s.usedNodes += j.Nodes
	s.sumWeight += w
	if j.Estimate > s.maxTime {
		s.maxTime = j.Estimate
	}
}

// smithRatio is the shelf ordering key of step 3: Σ weights / max time.
func (s *shelf) smithRatio() float64 {
	return s.sumWeight / float64(s.maxTime)
}

// computePlan runs the three SMART steps over a snapshot of waiting jobs
// and returns the shelf-concatenated priority order.
func (o *SMARTOrder) computePlan(jobs []*job.Job) []*job.Job {
	if len(jobs) <= 1 {
		return append([]*job.Job(nil), jobs...)
	}

	// Step 1: geometric execution-time bins ]0,1], ]1,γ], ]γ,γ²], …
	bins := make(map[int][]*job.Job)
	var binKeys []int
	for _, j := range jobs {
		k := geometricBin(j.Estimate, o.gamma)
		if _, ok := bins[k]; !ok {
			binKeys = append(binKeys, k)
		}
		bins[k] = append(bins[k], j)
	}
	sort.Ints(binKeys)

	// Step 2: pack each bin's jobs onto shelves.
	var shelves []*shelf
	for _, k := range binKeys {
		shelves = append(shelves, o.packBin(bins[k])...)
	}

	// Step 3: Smith's rule — largest Σweight/maxTime first. Stable sort
	// keeps the bin construction order deterministic on ties.
	slices.SortStableFunc(shelves, func(a, b *shelf) int {
		ra, rb := a.smithRatio(), b.smithRatio()
		if ra > rb {
			return -1
		}
		if ra < rb {
			return 1
		}
		return 0
	})

	plan := make([]*job.Job, 0, len(jobs))
	for _, s := range shelves {
		plan = append(plan, s.jobs...)
	}
	return plan
}

// geometricBin returns the smallest k >= 0 with t <= γ^k.
func geometricBin(t int64, gamma float64) int {
	if t <= 1 {
		return 0
	}
	k := 0
	bound := 1.0
	for float64(t) > bound {
		bound *= gamma
		k++
	}
	return k
}

// packBin arranges a bin's jobs on shelves per the configured variant.
func (o *SMARTOrder) packBin(jobs []*job.Job) []*shelf {
	sorted := append([]*job.Job(nil), jobs...)
	switch o.variant {
	case FFIA:
		// Smallest estimated area first; ties by ID for determinism.
		slices.SortStableFunc(sorted, func(a, b *job.Job) int {
			if c := cmp.Compare(a.EstimatedArea(), b.EstimatedArea()); c != 0 {
				return c
			}
			return cmp.Compare(a.ID, b.ID)
		})
		var shelves []*shelf
		for _, j := range sorted {
			placed := false
			for _, s := range shelves {
				if s.usedNodes+j.Nodes <= o.machine {
					s.add(j, o.weight(j))
					placed = true
					break
				}
			}
			if !placed {
				s := &shelf{}
				s.add(j, o.weight(j))
				shelves = append(shelves, s)
			}
		}
		return shelves
	case NFIW:
		// Increasing nodes/weight; ties by ID.
		slices.SortStableFunc(sorted, func(a, b *job.Job) int {
			ra := float64(a.Nodes) / o.weight(a)
			rb := float64(b.Nodes) / o.weight(b)
			if ra != rb {
				if ra < rb {
					return -1
				}
				return 1
			}
			return cmp.Compare(a.ID, b.ID)
		})
		var shelves []*shelf
		var cur *shelf
		for _, j := range sorted {
			if cur == nil || cur.usedNodes+j.Nodes > o.machine {
				cur = &shelf{}
				shelves = append(shelves, cur)
			}
			cur.add(j, o.weight(j))
		}
		return shelves
	default:
		panic("sched: unknown SMART variant")
	}
}
