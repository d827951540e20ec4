// Corpus for the journalsync analyzer. Loaded with the synthetic import
// path jobsched/internal/eval/fixture — inside the evaluation layer's
// durability boundary.
package fixture

import "os"

// flaggedUnsyncedWrite: the append may sit in the page cache when the
// caller reports the cell complete.
func flaggedUnsyncedWrite(f *os.File, line []byte) error {
	_, err := f.Write(line) // want `Write on "f" without a later f.Sync\(\)`
	return err
}

// flaggedUnsyncedWriteString: same rule, string flavor.
func flaggedUnsyncedWriteString(f *os.File) error {
	_, err := f.WriteString("cell\n") // want `WriteString on "f" without a later f.Sync\(\)`
	return err
}

// okWriteThenSync: the journal discipline.
func okWriteThenSync(f *os.File, line []byte) error {
	if _, err := f.Write(line); err != nil {
		return err
	}
	return f.Sync()
}

// flaggedRenameNoSync: rename publishes the name before the bytes are
// durable.
func flaggedRenameNoSync(tmp, dst string) error {
	return os.Rename(tmp, dst) // want `os.Rename without a preceding fsync`
}

// okRenameAfterSync: direct fsync before publishing.
func okRenameAfterSync(f *os.File, tmp, dst string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Rename(tmp, dst)
}

// okRenameViaHelper: the fsync may live in a package-local helper — the
// analyzer closes over the call graph.
func okRenameViaHelper(f *os.File, tmp, dst string) error {
	if err := flush(f); err != nil {
		return err
	}
	return os.Rename(tmp, dst)
}

func flush(f *os.File) error {
	if _, err := f.WriteString("tail\n"); err != nil {
		return err
	}
	return f.Sync()
}
