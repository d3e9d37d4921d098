// Package journal owns how the system persists records and the crash
// discipline around them. A journal file is a header line followed by one
// JSON record per line:
//
//	line 1:  {"Version":1,…}
//	line 2+: {…}
//
// A Writer appends each record and its newline in one Write and syncs
// once per N appends (group commit); Flush and Close sync the tail. A
// crash can therefore tear only the last line, and Read never applies a
// line without its newline: the valid prefix ends on the last newline,
// and reopening cuts the torn tail off before the next append.
//
// The checkpoint journal and the recorded measurement trace both use this
// framing. The package also holds the one whole-file
// atomic writer and the one parent-directory sync.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Read walks raw as a journal. The first line goes to header, which
// returns false to reject the whole file (a different version or run
// identity). Each later complete, non-empty line goes to record, in order,
// as raw's own bytes: the callee decodes it once and must not keep it.
//
// Read returns the length of raw's valid prefix: every line up to the
// first one without its newline. That line is a torn append — the record
// and its newline are written as one unit, so it was never committed, even
// when it happens to parse — and neither callback sees it. The result is
// 0 when raw has no complete header line or header rejects it. A callback
// error stops the walk and comes back with its 1-based line number.
func Read(raw []byte, header func(line []byte) (bool, error), record func(line []byte) error) (int64, error) {
	var off int64
	for n := 1; ; n++ {
		rest := raw[off:]
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return off, nil
		}
		line := rest[:nl]
		var err error
		if n == 1 {
			var keep bool
			if keep, err = header(line); err == nil && !keep {
				return 0, nil
			}
		} else if len(line) > 0 {
			err = record(line)
		}
		if err != nil {
			return 0, fmt.Errorf("line %d: %w", n, err)
		}
		off += int64(nl + 1)
	}
}

// A Writer appends records to a journal file. It is not safe for
// concurrent use: callers serialize appends under their own lock.
type Writer struct {
	f       *os.File
	every   int // sync once per every appends (>= 1)
	pending int // appends since the last sync
	syncs   int // Sync calls made
}

// Open replays the journal at path through load and returns a Writer that
// appends after the replayed records. load returns the length of the
// valid prefix, normally by calling Read; bytes past it (a torn append)
// are cut off so the next append starts on a line boundary. When the file
// is missing or load returns 0, the file is (re)created holding only the
// header line marshalled from hdr, and its directory entry is synced so
// the new journal survives a crash. The Writer syncs every append until
// SetGroupCommit says otherwise.
func Open(path string, hdr any, load func(raw []byte) (int64, error)) (*Writer, error) {
	raw, err := os.ReadFile(path)
	var valid int64
	if err == nil {
		if valid, err = load(raw); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if valid == 0 {
		return create(path, hdr)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err == nil && valid < int64(len(raw)) {
		if err = f.Truncate(valid); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, every: 1}, nil
}

func create(path string, hdr any) (*Writer, error) {
	line, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(append(line, '\n')); err == nil {
		if err = f.Sync(); err == nil {
			err = SyncDir(dir)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f, every: 1}, nil
}

// SetGroupCommit makes the Writer sync once per n appends (n <= 1 syncs
// every append). Lines written since the last sync are what a crash (not
// a clean Close) can lose.
func (w *Writer) SetGroupCommit(n int) { w.every = max(n, 1) }

// Append writes rec, which must not contain a newline, as one line.
func (w *Writer) Append(rec []byte) error {
	if _, err := w.f.Write(append(rec, '\n')); err != nil {
		return err
	}
	w.pending++
	if w.pending >= w.every {
		return w.sync()
	}
	return nil
}

func (w *Writer) sync() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs++
	w.pending = 0
	return nil
}

// Flush syncs the appends the group-commit window still holds; after it
// returns every appended record survives a crash. With nothing pending it
// does no I/O.
func (w *Writer) Flush() error {
	if w.pending == 0 {
		return nil
	}
	return w.sync()
}

// Close flushes the tail and closes the file.
func (w *Writer) Close() error {
	err := w.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Syncs reports how many times the Writer has synced its file, so tests
// can pin the group-commit batching.
func (w *Writer) Syncs() int { return w.syncs }

// dirSyncs counts completed directory syncs, so tests can pin that a
// create or a rename is followed by one.
var dirSyncs atomic.Uint64

// SyncDir makes the entries of dir durable. Creating or renaming a file
// updates its directory entry only in memory; without this sync a crash
// shortly afterwards can roll the entry back, so a new journal vanishes
// or a published file reverts to its old contents.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		dirSyncs.Add(1)
	}
	return err
}

// WriteFileAtomic lands raw at path via temp file, fsync, rename and
// SyncDir: a parallel reader, or a crash mid-write, sees either the old
// file or the complete new one, and a crash after return cannot roll the
// rename back.
func WriteFileAtomic(path string, raw []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(raw)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return SyncDir(dir)
}
