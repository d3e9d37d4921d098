// Package profcache is the persistent on-disk profile cache: it maps
// (block machine code, microarchitecture, profiling options, block seed)
// to the profiling result, so repeated evaluation runs over an unchanged
// corpus skip re-profiling entirely. The cache is an append-only journal
// (internal/journal): a header line carrying a format/semantics version,
// then one {Key, Entry} record per line, the last record for a key winning
// on load. A version bump invalidates every persisted entry: the file is
// restarted empty. So is a file in the older single-JSON-object format,
// which has no header line.
package profcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"bhive/internal/journal"
	"bhive/internal/pipeline"
)

// Version tags the profiling semantics. Bump it whenever the profiler or
// the machine model changes in a way that can alter results: stale caches
// are then discarded wholesale on Open.
const Version = 1

// Entry is one persisted profiling result.
type Entry struct {
	Status       int
	Throughput   float64
	ErrText      string `json:",omitempty"`
	UnrollHi     int
	UnrollLo     int
	PagesMapped  int
	CleanSamples int
	Counters     pipeline.Counters
}

type header struct {
	Version int
}

// record is one journal line.
type record struct {
	Key   string
	Entry Entry
}

// Cache is a thread-safe persistent profile cache. Put appends each new
// or changed entry to the file at once; Save only syncs what was appended.
type Cache struct {
	mu      sync.Mutex
	w       *journal.Writer
	entries map[string]Entry
	err     error // first failed append; Save reports it
}

// Open loads the cache at path, creating it if it is missing. A version
// mismatch yields an empty cache bound to the same path; a corrupt record
// is an error so silent cache loss is visible.
func Open(path string) (*Cache, error) {
	c := &Cache{entries: make(map[string]Entry)}
	w, err := journal.Open(path, header{Version}, c.load)
	if err != nil {
		return nil, fmt.Errorf("profcache: %w", err)
	}
	w.SetGroupCommit(0) // Save is the durability point
	c.w = w
	return c, nil
}

func (c *Cache) load(raw []byte) (int64, error) {
	return journal.Read(raw, func(line []byte) (bool, error) {
		var h header
		if err := json.Unmarshal(line, &h); err != nil {
			return false, fmt.Errorf("bad header: %w", err)
		}
		return h.Version == Version, nil
	}, func(line []byte) error {
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		c.entries[r.Key] = r.Entry
		return nil
	})
}

// Key derives the cache key for one profiling attempt. optsFingerprint
// must encode every Options field (any change must miss the cache); seed
// is the content-derived block seed.
func Key(blockHex, uarchName, optsFingerprint string, seed int64) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("v%d|%s|%s|%s|%d",
		Version, blockHex, uarchName, optsFingerprint, seed)))
	return hex.EncodeToString(h[:])
}

// Get returns the cached entry for key.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e, ok
}

// Put records an entry and appends it to the file unless the cache
// already holds it unchanged. After a failed append the cache stops
// writing (a later line would land on the torn one) and Save reports the
// failure.
func (c *Cache) Put(key string, e Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok && old == e {
		return
	}
	c.entries[key] = e
	if c.err != nil {
		return
	}
	raw, err := json.Marshal(record{key, e})
	if err == nil {
		err = c.w.Append(raw)
	}
	if err != nil {
		c.err = fmt.Errorf("profcache: %w", err)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Save makes every entry Put so far durable by syncing the appended
// records. When nothing was Put since the last Save it does no I/O.
func (c *Cache) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return c.w.Flush()
}
