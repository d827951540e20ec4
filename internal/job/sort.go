package job

import "sort"

// SortBySubmit orders jobs by submission time, breaking ties by ID.
// It sorts in place and also returns the slice for chaining.
func SortBySubmit(jobs []*Job) []*Job {
	sort.SliceStable(jobs, func(a, b int) bool {
		if jobs[a].Submit != jobs[b].Submit {
			return jobs[a].Submit < jobs[b].Submit
		}
		return jobs[a].ID < jobs[b].ID
	})
	return jobs
}

// Renumber assigns dense IDs 0..n-1 in the current slice order.
func Renumber(jobs []*Job) {
	for i, j := range jobs {
		j.ID = ID(i)
	}
}

// MaxNodes returns the largest node request in the slice (0 if empty).
func MaxNodes(jobs []*Job) int {
	max := 0
	for _, j := range jobs {
		if j.Nodes > max {
			max = j.Nodes
		}
	}
	return max
}

// Span returns the earliest submission and the latest possible completion
// (submit + estimate) over the slice. Both are 0 for an empty slice.
func Span(jobs []*Job) (first, last int64) {
	if len(jobs) == 0 {
		return 0, 0
	}
	first = jobs[0].Submit
	for _, j := range jobs {
		if j.Submit < first {
			first = j.Submit
		}
		if end := AddSat(j.Submit, j.Estimate); end > last {
			last = end
		}
	}
	return first, last
}
