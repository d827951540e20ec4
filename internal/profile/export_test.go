package profile

// SetTreeSmallLimit sets the array-mode step budget of Trees created from
// now on (0 forces the treap from the first step) and returns a function
// restoring the previous budget. Test-only: it lets the whole-schedule
// tests in package profile_test run the schedulers on either mode.
func SetTreeSmallLimit(n int) (restore func()) {
	old := treeSmallLimit
	treeSmallLimit = n
	return func() { treeSmallLimit = old }
}
