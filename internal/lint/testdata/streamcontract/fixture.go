// Corpus for the streamcontract analyzer's caller-side rule. Loaded
// with the synthetic import path jobsched/internal/cli/fixture — a
// driver consuming a source.
package fixture

import (
	"jobsched/internal/job"
	"jobsched/internal/sim"
)

// flaggedNoNilCheck dereferences the done sentinel on the first
// exhausted source.
func flaggedNoNilCheck(src sim.Source) (job.ID, error) {
	j, err := src.Next() // want `Source.Next result "j" is never nil-checked`
	if err != nil {
		return 0, err
	}
	return j.ID, nil
}

// flaggedBlankErr: a decode failure mid-stream must stop the run.
func flaggedBlankErr(src sim.Source) *job.Job {
	j, _ := src.Next() // want `Source.Next error discarded with _`
	if j == nil {
		return nil
	}
	return j
}

// flaggedBlankJob: dropping the job drops the sentinel with it.
func flaggedBlankJob(src sim.Source) error {
	_, err := src.Next() // want `Source.Next job result discarded with _`
	return err
}

// okDrainLoop: the canonical consumption loop.
func okDrainLoop(src sim.Source) (int, error) {
	n := 0
	for {
		j, err := src.Next()
		if err != nil {
			return n, err
		}
		if j == nil {
			return n, nil
		}
		n++
	}
}
