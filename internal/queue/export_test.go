package queue

// SetIndexSmallLimit sets the small-mode slot budget of Indexes created
// from now on (0 builds the tree on the first push) and returns a
// function restoring the previous budget. Test-only: it lets the
// whole-schedule tests in package queue_test run the schedulers on
// either mode.
func SetIndexSmallLimit(n int) (restore func()) {
	old := indexSmallLimit
	indexSmallLimit = n
	return func() { indexSmallLimit = old }
}

// DefaultIndexSmallLimit is the production small-mode slot budget.
var DefaultIndexSmallLimit = indexSmallLimit
