// Package durable holds the repository's two fsync protocols, so the
// daemon's sessions, the evaluation journal and the result files share
// one tested copy of each (DESIGN §10, §15):
//
//   - Log, an append-only file of newline-terminated lines. A line
//     counts as written only once its newline is on disk: Append writes
//     the whole buffer and fsyncs before it returns, so an unterminated
//     final line is the footprint of a crash mid-append, was never
//     acknowledged, and OpenLog cuts it off.
//   - ReplaceFile, the atomic whole-file replace: temp file, fsync,
//     rename, directory fsync. A crash leaves the old file or the new
//     one, never a torn mix.
//
// Every file or directory these functions create is made durable by an
// fsync of its parent directory: without it a crash can forget the new
// name while keeping the inode.
package durable

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
)

// Log is an append-only line log. It is not safe for concurrent use.
type Log struct {
	f    *os.File
	size int64   // file length as opened
	ends []int64 // end offset of each complete line at open
}

// OpenLog opens the log at path, creating it if absent, and returns its
// complete lines without their newlines. With keep false the file is
// truncated and no lines are returned. An unterminated final line is cut
// off the file, so the next Append starts on a clean line.
func OpenLog(path string, keep bool) (*Log, [][]byte, error) {
	var data []byte
	var err error
	if keep {
		data, err = os.ReadFile(path)
	} else {
		_, err = os.Stat(path)
	}
	created := os.IsNotExist(err)
	if err != nil && !created {
		return nil, nil, err
	}
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if !keep {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{f: f, size: int64(len(data))}
	var lines [][]byte
	for off := 0; ; {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		lines = append(lines, data[off:off+nl])
		off += nl + 1
		l.ends = append(l.ends, int64(off))
	}
	err = l.Cut(len(lines))
	if err == nil && created {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		_ = f.Close() // the cut or sync failure is the actionable error
		return nil, nil, err
	}
	return l, lines, nil
}

// Cut truncates the log to the first n of the lines OpenLog returned,
// dropping final lines its caller refuses. It must come before the
// first Append.
func (l *Log) Cut(n int) error {
	var end int64
	if n > 0 {
		end = l.ends[n-1]
	}
	if end == l.size {
		return nil
	}
	if err := l.f.Truncate(end); err != nil {
		return err
	}
	l.size, l.ends = end, l.ends[:n]
	return nil
}

// Append writes p, which must end in a newline, with one write and one
// fsync. On error the log's durability is unknown: reopen it.
func (l *Log) Append(p []byte) error {
	if _, err := l.f.Write(p); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close releases the file. Appended lines are already synced.
func (l *Log) Close() error { return l.f.Close() }

// ReplaceFile durably replaces path with what write produces. write
// fills a 64 KiB buffered writer over path+".tmp"; the temp file is
// flushed, fsynced, renamed over path and the directory fsynced. The
// content fsync before the rename is what makes the rename a commit
// point. On any failure the temp file is removed and path is untouched.
func ReplaceFile(path string, write func(*bufio.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // the write failure is the actionable error
		return err
	}
	return syncDir(filepath.Dir(path))
}

// MkdirAll creates dir and any missing parents, fsyncing the parent of
// every directory it creates.
func MkdirAll(dir string) error {
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return nil
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := MkdirAll(parent); err != nil {
			return err
		}
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	return syncDir(parent)
}

// RemoveAll removes dir and everything below it, then fsyncs its parent
// so the removal survives a crash.
func RemoveAll(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return syncDir(filepath.Dir(dir))
}

// syncDir fsyncs a directory, making the names created in or removed
// from it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
