package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	"bhive/internal/corpus"
	"bhive/internal/memo"
	"bhive/internal/profcache"
	"bhive/internal/profiler"
)

// CheckpointVersion tags the journal format and the evaluation semantics
// it captures. A bump discards persisted shards wholesale, like
// profcache.Version does for profiles.
const CheckpointVersion = 1

// A Checkpoint persists completed evaluation shards so an interrupted run
// resumes from the last completed shard instead of recomputing the whole
// corpus. The file is an append-only JSONL journal:
//
//	line 1:  {"Version":1,"Fingerprint":"…","ShardSize":512}
//	line 2+: {"Arch":"haswell","Shard":0,"Stage":"meas","Tp":[…],"Status":[…]}
//	         {"Arch":"haswell","Shard":0,"Stage":"pred","Preds":{"IACA":[…],…}}
//
// Each completed shard appends exactly one line, so the journal is O(1)
// per shard regardless of run length. By default every append also syncs,
// making the journal durable shard-by-shard: a crash can lose at most the
// shard in flight. SetGroupCommit relaxes that to one sync per N appends
// (group commit) — small, fast shards then stop paying a device flush
// each; a crash can lose up to the last unsynced group, which a resume
// simply recomputes. Close and Flush always sync the tail. The fingerprint
// binds the journal to one run identity — corpus content, seed, scale,
// profiling options, and model configuration (the same key space
// profcache uses, lifted to whole runs) — so a journal written by a
// different corpus or configuration is discarded on open, never merged.
// A truncated trailing line (the crash case) is dropped silently; any
// other malformed content is an error, so silent checkpoint loss stays
// visible.
//
// NaN predictions (failed models) round-trip as JSON null.
type Checkpoint struct {
	path string

	mu     sync.Mutex
	f      *os.File
	shards map[shardKey]*ShardEntry

	// Group-commit state: sync once per groupEvery appends (<=1: every
	// append). pending counts appends written since the last sync; syncs
	// counts Sync calls (observed by tests to pin the batching behavior).
	groupEvery int
	pending    int
	syncs      int
}

type shardKey struct {
	arch string
	idx  int
}

// ShardEntry is the persisted state of one (µarch, shard) cell. The two
// stages complete independently: measurements land during the profiling
// pass, predictions during the model pass (which may be a separate
// process lifetime when a run is interrupted between the two).
type ShardEntry struct {
	MeasDone bool
	Tp       []float64
	Status   []int

	PredDone bool
	Preds    map[string][]float64
}

type ckptHeader struct {
	Version     int
	Fingerprint string
	ShardSize   int
}

// ckptLine is one journal record.
type ckptLine struct {
	Arch   string
	Shard  int
	Stage  string                // "meas" or "pred"
	Tp     []float64             `json:",omitempty"`
	Status []int                 `json:",omitempty"`
	Preds  map[string][]nanFloat `json:",omitempty"`
}

// nanFloat round-trips NaN through JSON as null (encoding/json rejects
// NaN outright, and failed models legitimately predict NaN).
type nanFloat float64

func (f nanFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

func (f *nanFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = nanFloat(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(f))
}

// OpenCheckpoint opens (or creates) the journal at path. Persisted shards
// are kept only when the header matches (same format version, same run
// fingerprint, same shard size); otherwise the journal is restarted
// empty. A truncated trailing line — the interrupted-append case — is
// dropped and physically truncated away, so later appends start on a
// clean line boundary; any other corruption is an error.
func OpenCheckpoint(path, fingerprint string, shardSize int) (*Checkpoint, error) {
	c := &Checkpoint{path: path, shards: make(map[shardKey]*ShardEntry)}

	raw, err := os.ReadFile(path)
	fresh := false
	validLen := int64(0)
	switch {
	case os.IsNotExist(err):
		fresh = true
	case err != nil:
		return nil, fmt.Errorf("checkpoint: %w", err)
	default:
		var ok bool
		ok, validLen, err = c.load(raw, fingerprint, shardSize)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
		}
		fresh = !ok
	}

	if fresh {
		if dir := filepath.Dir(path); dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		hdr, err := json.Marshal(ckptHeader{
			Version: CheckpointVersion, Fingerprint: fingerprint, ShardSize: shardSize,
		})
		if err == nil {
			_, err = f.Write(append(hdr, '\n'))
		}
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		c.f = f
		return c, nil
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if validLen < int64(len(raw)) {
		// Drop the interrupted trailing fragment before appending to it.
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	c.f = f
	return c, nil
}

// load replays a journal. It reports whether the header matched (false
// means: restart empty) and how many leading bytes hold complete, valid
// lines.
func (c *Checkpoint) load(raw []byte, fingerprint string, shardSize int) (ok bool, validLen int64, err error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return false, 0, nil // empty or truncated header: restart
	}
	var hdr ckptHeader
	if err := json.Unmarshal(raw[:nl], &hdr); err != nil {
		return false, 0, fmt.Errorf("bad header: %w", err)
	}
	if hdr.Version != CheckpointVersion || hdr.Fingerprint != fingerprint || hdr.ShardSize != shardSize {
		return false, 0, nil // different run identity: restart
	}
	off := int64(nl + 1)
	rest := raw[nl+1:]
	for len(rest) > 0 {
		nl = bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// Unterminated final line: an append died mid-write. The record
			// and its newline are written and synced as one unit, so a line
			// without a newline was never durably committed — even when the
			// fragment happens to parse as complete JSON (a tear exactly at
			// the closing brace). Applying such a fragment would also leave
			// the next append to concatenate onto it, corrupting the
			// journal for every later open. Keep everything before it and
			// let Open truncate the rest.
			return true, off, nil
		}
		line := rest[:nl]
		if len(line) > 0 {
			var l ckptLine
			if uerr := json.Unmarshal(line, &l); uerr != nil {
				return false, 0, fmt.Errorf("corrupt journal line: %w", uerr)
			}
			c.apply(&l)
		}
		off += int64(nl + 1)
		rest = rest[nl+1:]
	}
	return true, off, nil
}

func (c *Checkpoint) apply(l *ckptLine) {
	k := shardKey{l.Arch, l.Shard}
	e := c.shards[k]
	if e == nil {
		e = &ShardEntry{}
		c.shards[k] = e
	}
	switch l.Stage {
	case "meas":
		e.MeasDone = true
		e.Tp = l.Tp
		e.Status = l.Status
	case "pred":
		e.PredDone = true
		e.Preds = make(map[string][]float64, len(l.Preds))
		for name, vs := range l.Preds {
			fs := make([]float64, len(vs))
			for i, v := range vs {
				fs[i] = float64(v)
			}
			e.Preds[name] = fs
		}
	}
}

// Shard returns the persisted entry for one (µarch, shard index) cell.
func (c *Checkpoint) Shard(arch string, idx int) (ShardEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.shards[shardKey{arch, idx}]
	if !ok {
		return ShardEntry{}, false
	}
	return *e, true
}

// Shards returns the number of persisted (µarch, shard) cells.
func (c *Checkpoint) Shards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.shards)
}

// PutMeas persists one shard's measurements (synced per the group-commit
// policy).
func (c *Checkpoint) PutMeas(arch string, idx int, tp []float64, status []int) error {
	return c.append(&ckptLine{Arch: arch, Shard: idx, Stage: "meas", Tp: tp, Status: status})
}

// PutPreds persists one shard's per-model predictions (synced per the
// group-commit policy).
func (c *Checkpoint) PutPreds(arch string, idx int, preds map[string][]float64) error {
	l := &ckptLine{Arch: arch, Shard: idx, Stage: "pred",
		Preds: make(map[string][]nanFloat, len(preds))}
	for name, vs := range preds {
		ns := make([]nanFloat, len(vs))
		for i, v := range vs {
			ns[i] = nanFloat(v)
		}
		l.Preds[name] = ns
	}
	return c.append(l)
}

// SetGroupCommit makes the journal sync once per n appends instead of on
// every append (n <= 1 restores per-append durability). Each record and
// its newline are still written as one unit, so the torn-tail recovery
// contract is unchanged; what group commit trades away is durability of
// the lines written since the last sync — after a crash (not a clean
// Close, which always flushes) those shards are recomputed on resume.
func (c *Checkpoint) SetGroupCommit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.groupEvery = n
}

func (c *Checkpoint) append(l *ckptLine) error {
	raw, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return fmt.Errorf("checkpoint: %s: closed", c.path)
	}
	if _, err := c.f.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	c.pending++
	if c.pending >= c.groupEvery || c.groupEvery <= 1 {
		if err := c.sync(); err != nil {
			return err
		}
	}
	c.apply(l)
	return nil
}

// sync flushes pending appends to stable storage. Callers hold c.mu.
func (c *Checkpoint) sync() error {
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	c.syncs++
	c.pending = 0
	return nil
}

// Flush syncs any appends the group-commit window is still holding. It is
// the durable boundary for graceful interrupts: after Flush returns, every
// persisted shard survives a crash.
func (c *Checkpoint) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil || c.pending == 0 {
		return nil
	}
	return c.sync()
}

// Close flushes the group-commit tail and releases the journal's append
// handle; after a clean Close every persisted shard is durable.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	var err error
	if c.pending > 0 {
		err = c.sync()
	}
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	return err
}

// runFingerprint derives the run identity a checkpoint is bound to:
// format version, seed, scale, model configuration, profiling options,
// profile-cache semantics version, and the full corpus content (app,
// frequency, machine code of every record). Any change misses — exactly
// the profcache key discipline, applied to whole runs.
func runFingerprint(cfg Config, recs []corpus.Record) string {
	h := sha256.New()
	fmt.Fprintf(h, "ckpt-v%d|seed=%d|scale=%g|ithemal=%v/%d/%d|opts=%s|profcache-v%d|prescreen=%v|n=%d\n",
		CheckpointVersion, cfg.Seed, cfg.Scale,
		cfg.TrainIthemal, cfg.IthemalEpochs, cfg.IthemalTrainCap,
		profiler.DefaultOptions().Fingerprint(), profcache.Version, cfg.Prescreen, len(recs))
	// Backend identity (cross-validation runs): a trace replay adopts the
	// fingerprint of the backend that produced it, so a replayed run
	// deliberately shares the originating run's checkpoints.
	for _, be := range cfg.Backends {
		fmt.Fprintf(h, "backend=%s\n", be.Fingerprint())
	}
	var buf []byte
	for i := range recs {
		fmt.Fprintf(h, "%s|%d|", recs[i].App, recs[i].Freq)
		buf = buf[:0]
		for j := range recs[i].Block.Insts {
			if e := memo.Inst(&recs[i].Block.Insts[j]); e.EncErr == nil {
				buf = append(buf, e.Raw...)
			}
		}
		h.Write(buf)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
