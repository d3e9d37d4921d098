package backend

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"bhive/internal/journal"
	"bhive/internal/pipeline"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// TraceVersion tags the trace file format; a bump invalidates old traces
// wholesale (they fail to open rather than replaying stale semantics).
const TraceVersion = 1

// A measurement trace is a journal (internal/journal):
//
//	line 1:  {"Version":1,"Backend":"sim","Fingerprint":"sim|{...}"}
//	line 2+: {"Key":"5f0c…","CPU":"haswell","Status":0,"Tp":1.25,"Counters":{…}}
//
// Entries are content-addressed: Key = sha256(cpu name | block machine
// code), so a trace is a pure function of what was measured — re-running
// the same corpus in any order or sharding produces the same entry set,
// and replay needs no positional bookkeeping. The header records which
// backend produced the trace; replay adopts that identity (name and
// fingerprint), which is what makes a replayed report byte-identical to
// the originating backend's.
type traceHeader struct {
	Version     int
	Backend     string
	Fingerprint string
}

type traceEntry struct {
	Key      string
	CPU      string
	Status   int
	Tp       float64
	Counters pipeline.Counters
}

// traceKey content-addresses one (cpu, block) measurement.
func traceKey(cpuName string, b *x86.Block) (string, error) {
	hexStr, err := b.Hex()
	if err != nil {
		return "", fmt.Errorf("backend: trace key: %w", err)
	}
	sum := sha256.Sum256([]byte(cpuName + "|" + hexStr))
	return hex.EncodeToString(sum[:16]), nil
}

// Recorder wraps another backend and appends every measurement it
// produces to a trace file, deduplicated by content address. It is
// transparent: Name and Fingerprint are the inner backend's, so a
// recording run reports exactly what the inner backend would alone.
//
// The trace is written atomically: appends go to a hidden temp file in
// the destination directory, and only a clean Close publishes it (fsync,
// rename over the final path, parent-directory fsync). A crash — or a
// recording that ends in error — leaves any previous trace at the final
// path untouched instead of a torn file that OpenTrace rejects wholesale.
type Recorder struct {
	inner Backend
	path  string // final trace path, created by Close

	mu   sync.Mutex
	f    *os.File // temp file until Close renames it
	w    *bufio.Writer
	seen map[string]bool
	err  error // first write error, surfaced by Close
}

// NewRecorder arranges for a trace at path and returns a backend that
// measures through inner while recording. Nothing exists at path until
// Close publishes the complete trace.
func NewRecorder(inner Backend, path string) (*Recorder, error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("backend: trace: %w", err)
	}
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("backend: trace: %w", err)
	}
	r := &Recorder{inner: inner, path: path, f: f, w: bufio.NewWriter(f), seen: make(map[string]bool)}
	hdr, err := json.Marshal(traceHeader{
		Version: TraceVersion, Backend: inner.Name(), Fingerprint: inner.Fingerprint(),
	})
	if err == nil {
		_, err = r.w.Write(append(hdr, '\n'))
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("backend: trace: %w", err)
	}
	return r, nil
}

func (r *Recorder) Name() string        { return r.inner.Name() }
func (r *Recorder) Fingerprint() string { return r.inner.Fingerprint() }

func (r *Recorder) Measure(b *x86.Block, cpu *uarch.CPU) Measurement {
	m := r.inner.Measure(b, cpu)
	key, err := traceKey(cpu.Name, b)
	if err != nil {
		r.noteErr(err)
		return m
	}
	raw, err := json.Marshal(traceEntry{
		Key: key, CPU: cpu.Name, Status: int(m.Status), Tp: m.Throughput, Counters: m.Counters,
	})
	if err != nil {
		r.noteErr(err)
		return m
	}
	r.mu.Lock()
	if !r.seen[key] && r.err == nil && r.w != nil {
		r.seen[key] = true
		if _, werr := r.w.Write(append(raw, '\n')); werr != nil {
			r.err = werr
		}
	}
	r.mu.Unlock()
	return m
}

func (r *Recorder) noteErr(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Close flushes and syncs the trace, publishes it under the final path
// (rename + parent-directory fsync), closes the inner backend, and
// surfaces the first error from anywhere in the recording. On error the
// temp file is removed and the final path is left as it was — a trace
// either appears complete or not at all.
func (r *Recorder) Close() error {
	r.mu.Lock()
	err := r.err
	if r.w != nil {
		if ferr := r.w.Flush(); err == nil {
			err = ferr
		}
		r.w = nil
	}
	if r.f != nil {
		tmp := r.f.Name()
		if serr := r.f.Sync(); err == nil {
			err = serr
		}
		if cerr := r.f.Close(); err == nil {
			err = cerr
		}
		r.f = nil
		if err == nil {
			err = os.Rename(tmp, r.path)
		}
		if err == nil {
			err = journal.SyncDir(filepath.Dir(r.path))
		}
		if err != nil {
			os.Remove(tmp)
		}
	}
	r.mu.Unlock()
	if ierr := r.inner.Close(); err == nil {
		err = ierr
	}
	if err != nil {
		return fmt.Errorf("backend: trace: %w", err)
	}
	return nil
}

// RecordedBackend replays a measurement trace deterministically: every
// Measure is a content-addressed lookup, no simulation runs. It adopts
// the identity (name, fingerprint) of the backend that produced the
// trace, so a replayed report is byte-identical to the original run's.
// A block the trace never measured replays as StatusCrashed with a
// descriptive error — hermetic by construction, never silently wrong.
type RecordedBackend struct {
	name        string
	fingerprint string
	path        string
	entries     map[string]traceEntry
}

// OpenTrace loads a trace written by a Recorder. The whole file is
// validated eagerly: version mismatches, corrupt lines, and duplicate
// keys with conflicting payloads all fail here rather than mid-run. A
// published trace is complete, so a torn last line — which the journal
// loader leaves out of the valid prefix — is an error too.
func OpenTrace(path string) (*RecordedBackend, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("backend: trace: %w", err)
	}
	rb := &RecordedBackend{path: path, entries: make(map[string]traceEntry)}
	valid, err := journal.Read(raw, func(line []byte) (bool, error) {
		var hdr traceHeader
		if err := json.Unmarshal(line, &hdr); err != nil {
			return false, fmt.Errorf("bad header: %w", err)
		}
		if hdr.Version != TraceVersion {
			return false, fmt.Errorf("version %d, want %d", hdr.Version, TraceVersion)
		}
		if hdr.Backend == "" {
			return false, errors.New("header names no backend")
		}
		rb.name, rb.fingerprint = hdr.Backend, hdr.Fingerprint
		return true, nil
	}, func(line []byte) error {
		var e traceEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		// Full-payload comparison: traceEntry is comparable, so any field
		// diverging — Counters included, which Status+Tp checks would let
		// slip through to a silent last-write-wins — is a conflict.
		if prev, dup := rb.entries[e.Key]; dup && prev != e {
			return fmt.Errorf("key %s recorded twice with conflicting payloads", e.Key)
		}
		rb.entries[e.Key] = e
		return nil
	})
	switch {
	case err != nil:
		return nil, fmt.Errorf("backend: trace: %s: %w", path, err)
	case valid == 0:
		return nil, fmt.Errorf("backend: trace: %s: missing header", path)
	case valid < int64(len(raw)):
		return nil, fmt.Errorf("backend: trace: %s: truncated entry after byte %d", path, valid)
	}
	return rb, nil
}

func (rb *RecordedBackend) Name() string        { return rb.name }
func (rb *RecordedBackend) Fingerprint() string { return rb.fingerprint }

// Len reports how many distinct (cpu, block) measurements the trace holds.
func (rb *RecordedBackend) Len() int { return len(rb.entries) }

func (rb *RecordedBackend) Measure(b *x86.Block, cpu *uarch.CPU) Measurement {
	key, err := traceKey(cpu.Name, b)
	if err != nil {
		return Measurement{Status: profiler.StatusCrashed, Err: err}
	}
	e, ok := rb.entries[key]
	if !ok {
		return Measurement{
			Status: profiler.StatusCrashed,
			Err:    fmt.Errorf("backend: trace %s has no measurement for this block on %s", rb.path, cpu.Name),
		}
	}
	return Measurement{Status: profiler.Status(e.Status), Throughput: e.Tp, Counters: e.Counters}
}

func (rb *RecordedBackend) Close() error { return nil }
