package workload

import (
	"fmt"
	"math/rand"

	"jobsched/internal/job"
	"jobsched/internal/stats"
)

// Streamer generates the Table 2 randomized workload one job at a time,
// in submission order, under constant memory — the synthetic arrival
// source for million-job streaming simulations (it satisfies
// sim.Source). For the same config it yields exactly the jobs
// Randomized returns, in the same order: the two share the RNG streams
// and sampling order, and the differential test pins that equivalence.
type Streamer struct {
	cfg  RandomizedConfig
	rArr *rand.Rand
	rJob *rand.Rand
	i    int
	t    int64
}

// NewStreamer validates the config (same constraints as Randomized) and
// positions the stream before the first job.
func NewStreamer(cfg RandomizedConfig) (*Streamer, error) {
	if cfg.Jobs <= 0 || cfg.MinNodes < 1 || cfg.MaxNodes < cfg.MinNodes ||
		cfg.MinLimit < 1 || cfg.MaxLimit < cfg.MinLimit || cfg.MinRuntime < 1 {
		return nil, fmt.Errorf("workload: invalid randomized config")
	}
	return &Streamer{
		cfg:  cfg,
		rArr: stats.Split(cfg.Seed, 20),
		rJob: stats.Split(cfg.Seed, 21),
	}, nil
}

// Next returns the next job, or (nil, nil) once cfg.Jobs have been
// yielded. Submission times are non-decreasing by construction.
func (s *Streamer) Next() (*job.Job, error) {
	if s.i >= s.cfg.Jobs {
		return nil, nil
	}
	s.t += stats.UniformInt(s.rArr, 0, s.cfg.MaxGap)
	limit := stats.UniformInt(s.rJob, s.cfg.MinLimit, s.cfg.MaxLimit)
	runtime := stats.UniformInt(s.rJob, s.cfg.MinRuntime, limit)
	j := &job.Job{
		ID:       job.ID(s.i),
		Submit:   s.t,
		Nodes:    int(stats.UniformInt(s.rJob, int64(s.cfg.MinNodes), int64(s.cfg.MaxNodes))),
		Estimate: limit,
		Runtime:  runtime,
	}
	s.i++
	if err := j.Validate(s.cfg.MaxNodes, true); err != nil {
		return nil, fmt.Errorf("workload: generated invalid job: %w", err)
	}
	return j, nil
}

// CalibratedStreamConfig returns a RandomizedConfig for n jobs whose
// arrival rate is calibrated so the offered load on a machine of the
// given node count is approximately the target fraction of capacity
// (0 < load): the mean interarrival gap is set to
// E[nodes]·E[runtime] / (load·machineNodes). The paper's Table 2 rate
// (one job per hour on 256 nodes) oversubscribes the machine several
// times over, which is fine for a 50k-job saturation study but makes a
// 10M-job run accumulate an unbounded backlog; a load below 1 keeps
// the queue — and the simulator's memory — bounded.
func CalibratedStreamConfig(n, machineNodes int, load float64, seed int64) RandomizedConfig {
	cfg := DefaultRandomizedConfig()
	cfg.Jobs = n
	cfg.Seed = seed
	if machineNodes > 0 {
		cfg.MaxNodes = machineNodes
	}
	if load > 0 {
		meanNodes := float64(cfg.MinNodes+cfg.MaxNodes) / 2
		meanLimit := float64(cfg.MinLimit+cfg.MaxLimit) / 2
		meanRuntime := (float64(cfg.MinRuntime) + meanLimit) / 2
		meanGap := meanNodes * meanRuntime / (load * float64(machineNodes))
		cfg.MaxGap = int64(2 * meanGap)
		if cfg.MaxGap < 1 {
			cfg.MaxGap = 1
		}
	}
	return cfg
}
