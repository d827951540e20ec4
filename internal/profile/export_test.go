package profile

// NewTinyBlockTree returns a Tree whose blocks split past two steps, in
// groups of two blocks, so that a scheduler's small profiles span many
// blocks and groups. Test-only: it lets
// the whole-schedule tests in package profile_test run the schedulers
// across block boundaries.
func NewTinyBlockTree(nodes int, from int64) *Tree { return newTreeBlocks(nodes, from, 1, 1) }

// Blocks returns the number of blocks t is cut into.
func (t *Tree) Blocks() int { return len(t.blocks) }
