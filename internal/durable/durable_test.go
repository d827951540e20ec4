package durable

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func openLog(t *testing.T, path string, keep bool) (*Log, []string) {
	t.Helper()
	l, lines, err := OpenLog(path, keep)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(lines))
	for i, line := range lines {
		out[i] = string(line)
	}
	return l, out
}

func closeLog(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// A torn final line (no newline: a crash mid-append) is not returned,
// is cut off the file, and the next Append starts on a clean line.
func TestOpenLogCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("a\nb\n{\"to"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, lines := openLog(t, path, true)
	if want := []string{"a", "b"}; !reflect.DeepEqual(lines, want) {
		t.Fatalf("lines = %q, want %q", lines, want)
	}
	if got := readFile(t, path); got != "a\nb\n" {
		t.Fatalf("torn tail not cut on disk: %q", got)
	}
	if err := l.Append([]byte("c\n")); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)
	if got := readFile(t, path); got != "a\nb\nc\n" {
		t.Fatalf("append after the cut: %q", got)
	}
	l, lines = openLog(t, path, true)
	defer closeLog(t, l)
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(lines, want) {
		t.Fatalf("reopened lines = %q, want %q", lines, want)
	}
}

// keep=false truncates an existing log; a missing log is created empty.
func TestOpenLogTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("old\nlines\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, lines := openLog(t, path, false)
	if len(lines) != 0 {
		t.Fatalf("keep=false returned lines %q", lines)
	}
	if err := l.Append([]byte("new\n")); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)
	if got := readFile(t, path); got != "new\n" {
		t.Fatalf("keep=false left %q", got)
	}

	fresh := filepath.Join(t.TempDir(), "fresh")
	l, lines = openLog(t, fresh, true)
	closeLog(t, l)
	if len(lines) != 0 || readFile(t, fresh) != "" {
		t.Fatalf("missing log not created empty: %q", lines)
	}
}

// Cut drops complete final lines the caller refuses, on disk too.
func TestLogCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("a\nb\nbad\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, lines := openLog(t, path, true)
	if len(lines) != 3 {
		t.Fatalf("lines = %q", lines)
	}
	if err := l.Cut(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("c\n")); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)
	if got := readFile(t, path); got != "a\nb\nc\n" {
		t.Fatalf("after Cut(2) + append: %q", got)
	}
}

// A ReplaceFile whose writer fails leaves the old file byte-identical
// and no temp file behind; a successful one replaces the content.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, []byte("old content\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := ReplaceFile(path, func(w *bufio.Writer) error {
		if _, err := w.WriteString("half a new fi"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ReplaceFile returned %v, want the writer's error", err)
	}
	if got := readFile(t, path); got != "old content\n" {
		t.Fatalf("failed replace changed the file: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed replace left its temp file: %v", err)
	}

	err = ReplaceFile(path, func(w *bufio.Writer) error {
		_, err := w.WriteString("new content\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "new content\n" {
		t.Fatalf("replace wrote %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("replace left its temp file: %v", err)
	}
}

// MkdirAll creates missing parents and accepts an existing directory;
// RemoveAll removes a tree.
func TestMkdirAllRemoveAll(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "c")
	for i := 0; i < 2; i++ {
		if err := MkdirAll(dir); err != nil {
			t.Fatalf("MkdirAll pass %d: %v", i, err)
		}
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("MkdirAll did not create %s: %v", dir, err)
	}
	file := filepath.Join(root, "a", "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := MkdirAll(file); err == nil {
		t.Fatal("MkdirAll over a regular file succeeded")
	}
	if err := RemoveAll(filepath.Join(root, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "a")); !os.IsNotExist(err) {
		t.Fatalf("RemoveAll left the tree: %v", err)
	}
}
