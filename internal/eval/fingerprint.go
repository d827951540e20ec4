package eval

import (
	"math"

	"jobsched/internal/job"
	"jobsched/internal/sim"
)

// Fingerprint is an incremental FNV-1a 64 hash over everything that
// determines the cell values of an evaluation run: the workload, the
// machine, and the value-affecting options. Journals are stamped with
// the sum so a -resume against a journal recorded for a different
// evaluation is refused instead of silently mixing stale cells into
// fresh tables (the cells are keyed only by grid/case/policy names,
// which do not change when the workload or the failure plan does).
type Fingerprint struct {
	h uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewFingerprint returns an empty fingerprint.
func NewFingerprint() *Fingerprint {
	return &Fingerprint{h: fnvOffset64}
}

func (f *Fingerprint) byte(b byte) {
	f.h ^= uint64(b)
	f.h *= fnvPrime64
}

// String folds a length-prefixed string into the hash (the prefix keeps
// concatenated fields unambiguous).
func (f *Fingerprint) String(s string) {
	f.Int(int64(len(s)))
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
}

// Int folds an integer into the hash.
func (f *Fingerprint) Int(v int64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v >> (8 * i)))
	}
}

// Bool folds a flag into the hash.
func (f *Fingerprint) Bool(b bool) {
	if b {
		f.byte(1)
	} else {
		f.byte(0)
	}
}

// Float folds a float's exact bits into the hash.
func (f *Fingerprint) Float(v float64) {
	f.Int(int64(math.Float64bits(v)))
}

// Jobs folds the scheduling-relevant fields of a workload into the
// hash, in slice order.
func (f *Fingerprint) Jobs(jobs []*job.Job) {
	f.Int(int64(len(jobs)))
	for _, j := range jobs {
		f.Int(int64(j.ID))
		f.Int(j.Submit)
		f.Int(j.Runtime)
		f.Int(j.Estimate)
		f.Int(int64(j.Nodes))
		f.String(j.User)
	}
}

// Machine folds the machine model into the hash.
func (f *Fingerprint) Machine(m sim.Machine) {
	f.Int(int64(m.Nodes))
}

// Options folds the value-affecting grid options into the hash: grid
// shape, scheduler configuration, and the fault plan. Runtime knobs
// that cannot change any cell value (Parallel, Workers, KeepGoing,
// CellTimeout, Interrupt, Journal, Hooks, Validate, sharding) are
// deliberately excluded, so a sharded or resumed run fingerprints the
// same as a single-process one.
func (f *Fingerprint) Options(opt Options) {
	for _, o := range opt.Orders {
		f.String(string(o))
	}
	for _, s := range opt.Starts {
		f.String(string(s))
	}
	f.Int(int64(opt.MaxBackfillDepth))
	// The slot of the deleted approximate conservative walk: cells it
	// recorded are refused, cells of the exact walk still resume.
	f.Bool(false)
	f.Bool(opt.MeasureCPU)
	f.Int(int64(len(opt.Failures)))
	for _, fl := range opt.Failures {
		f.Int(fl.At)
		f.Int(int64(fl.Nodes))
		f.Int(fl.Duration)
	}
	f.Int(int64(len(opt.Announced)))
	for _, fl := range opt.Announced {
		f.Int(fl.At)
		f.Int(int64(fl.Nodes))
		f.Int(fl.Duration)
	}
	f.Int(int64(opt.Resubmit.MaxResubmits))
	f.Int(opt.Resubmit.BackoffBase)
	f.Int(opt.Resubmit.BackoffFactor)
	f.Int(opt.Resubmit.BackoffCap)
}

// Sum returns the current hash value.
func (f *Fingerprint) Sum() uint64 { return f.h }
