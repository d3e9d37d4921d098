package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"bhive/internal/corpus"
	"bhive/internal/journal"
	"bhive/internal/memo"
	"bhive/internal/profiler"
)

// CheckpointVersion tags the journal format and the evaluation semantics
// it captures. A bump discards persisted shards wholesale: the header no
// longer matches, so the journal restarts empty.
const CheckpointVersion = 1

// A Checkpoint persists completed evaluation shards so an interrupted run
// resumes from the last completed shard instead of recomputing the whole
// corpus. The file is a journal (internal/journal):
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
// simply recomputes. The framing, the group commit, the sync of a new
// journal's directory entry and the torn-tail rule are the journal
// package's; Close and Flush sync the tail. The fingerprint binds the
// journal to one run identity — corpus content, seed, scale, profiling
// options, and model configuration — so a journal written by a different
// corpus or configuration is discarded on open, never merged. A line without its
// newline (the crash case) is dropped and cut off; any other malformed
// content is an error, so silent checkpoint loss stays visible.
//
// NaN predictions (failed models) round-trip as JSON null.
type Checkpoint struct {
	path string

	mu     sync.Mutex
	w      *journal.Writer // nil once closed
	shards map[shardKey]*ShardEntry
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
	Preds  map[string][]NaNFloat `json:",omitempty"`
}

// NaNFloat round-trips NaN through JSON as null: encoding/json rejects
// NaN outright, and failed models legitimately predict NaN. The journal
// and the distributed-worker wire format share it.
type NaNFloat float64

// MarshalJSON encodes NaN as null.
func (f NaNFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON decodes null as NaN.
func (f *NaNFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = NaNFloat(math.NaN())
		return nil
	}
	return json.Unmarshal(b, (*float64)(f))
}

// ToNaNFloats converts a prediction map to its JSON form.
func ToNaNFloats(preds map[string][]float64) map[string][]NaNFloat {
	out := make(map[string][]NaNFloat, len(preds))
	for name, vs := range preds {
		ns := make([]NaNFloat, len(vs))
		for i, v := range vs {
			ns[i] = NaNFloat(v)
		}
		out[name] = ns
	}
	return out
}

// FromNaNFloats converts JSON-form predictions back to plain float64
// slices.
func FromNaNFloats(preds map[string][]NaNFloat) map[string][]float64 {
	out := make(map[string][]float64, len(preds))
	for name, vs := range preds {
		fs := make([]float64, len(vs))
		for i, v := range vs {
			fs[i] = float64(v)
		}
		out[name] = fs
	}
	return out
}

// OpenCheckpoint opens (or creates) the journal at path. Persisted shards
// are kept only when the header matches (same format version, same run
// fingerprint, same shard size); otherwise the journal is restarted
// empty. A truncated trailing line — the interrupted-append case — is
// dropped and physically truncated away, so later appends start on a
// clean line boundary; any other corruption is an error.
func OpenCheckpoint(path, fingerprint string, shardSize int) (*Checkpoint, error) {
	c := &Checkpoint{path: path, shards: make(map[shardKey]*ShardEntry)}
	w, err := journal.Open(path, ckptHeader{
		Version: CheckpointVersion, Fingerprint: fingerprint, ShardSize: shardSize,
	}, func(raw []byte) (int64, error) { return c.load(raw, fingerprint, shardSize) })
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	c.w = w
	return c, nil
}

// load replays a journal and returns the length of its valid prefix; 0
// means the header did not match and the journal restarts empty.
func (c *Checkpoint) load(raw []byte, fingerprint string, shardSize int) (int64, error) {
	return journal.Read(raw, func(line []byte) (bool, error) {
		var hdr ckptHeader
		if err := json.Unmarshal(line, &hdr); err != nil {
			return false, fmt.Errorf("bad header: %w", err)
		}
		return hdr.Version == CheckpointVersion && hdr.Fingerprint == fingerprint && hdr.ShardSize == shardSize, nil
	}, func(line []byte) error {
		var l ckptLine
		if err := json.Unmarshal(line, &l); err != nil {
			return fmt.Errorf("corrupt journal line: %w", err)
		}
		c.apply(&l)
		return nil
	})
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
		e.Preds = FromNaNFloats(l.Preds)
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
	return c.append(&ckptLine{Arch: arch, Shard: idx, Stage: "pred", Preds: ToNaNFloats(preds)})
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
	c.w.SetGroupCommit(n)
}

func (c *Checkpoint) append(l *ckptLine) error {
	raw, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		return fmt.Errorf("checkpoint: %s: closed", c.path)
	}
	if err := c.w.Append(raw); err != nil {
		return err
	}
	c.apply(l)
	return nil
}

// Flush syncs any appends the group-commit window is still holding. It is
// the durable boundary for graceful interrupts: after Flush returns, every
// persisted shard survives a crash.
func (c *Checkpoint) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		return nil
	}
	return c.w.Flush()
}

// Close flushes the group-commit tail and releases the journal's append
// handle; after a clean Close every persisted shard is durable.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		return nil
	}
	err := c.w.Close()
	c.w = nil
	return err
}

// runFingerprint derives the run identity a checkpoint is bound to:
// format version, seed, scale, model configuration, profiling options,
// the prescreen setting, the backends' fingerprints, and the full corpus
// content (app, frequency, machine code of every record). Any change
// misses: the journal restarts instead of resuming. The experiment is not
// part of it, so every experiment over one run identity shares a journal.
func runFingerprint(cfg Config, recs []corpus.Record) string {
	h := sha256.New()
	fmt.Fprintf(h, "ckpt-v%d|seed=%d|scale=%g|ithemal=%v/%d/%d|opts=%s|prescreen=%v|n=%d\n",
		CheckpointVersion, cfg.Seed, cfg.Scale,
		cfg.TrainIthemal, cfg.IthemalEpochs, ithemalTrainCap,
		profiler.DefaultOptions().Fingerprint(), cfg.Prescreen, len(recs))
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
