package profcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bhive/internal/pipeline"
)

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("fresh cache has %d entries", c.Len())
	}

	e := Entry{
		Status:       0,
		Throughput:   1.25,
		UnrollHi:     100,
		UnrollLo:     50,
		PagesMapped:  2,
		CleanSamples: 16,
		Counters:     pipeline.Counters{Cycles: 125, Instructions: 200},
	}
	k := Key("4801d8", "haswell", "opts-v1", 42)
	c.Put(k, e)
	if got, ok := c.Get(k); !ok || got != e {
		t.Fatalf("Get after Put = %+v, %v", got, ok)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(k); !ok || got != e {
		t.Fatalf("Get after reload = %+v, %v", got, ok)
	}
}

// TestSaveIsNoOpWhenClean: a Save with nothing Put since the last one
// writes no bytes.
func TestSaveIsNoOpWhenClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, _ := Open(path)
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw, hdr) {
		t.Fatalf("Save of an untouched cache wrote %q after the header", raw[len(hdr):])
	}
	c.Put("k", Entry{Throughput: 1})
	c.Put("k", Entry{Throughput: 1}) // identical re-Put appends nothing
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	fi1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := lines(t, path); got != 2 {
		t.Fatalf("one distinct Put left %d lines, want header + 1", got)
	}
	if err := c.Save(); err != nil { // second Save: nothing new
		t.Fatal(err)
	}
	fi2, _ := os.Stat(path)
	if fi2.Size() != fi1.Size() || !fi1.ModTime().Equal(fi2.ModTime()) {
		t.Error("clean Save wrote to the file")
	}
}

// TestSaveAppendsOnlyNewRecords: a Save after k new Puts grows the file
// by exactly k lines and leaves every earlier byte as it was; a changed
// entry is one more line, and the last record for a key wins on reload.
func TestSaveAppendsOnlyNewRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, _ := os.ReadFile(path)
	for round, k := range []int{3, 1, 5} {
		for i := 0; i < k; i++ {
			c.Put(fmt.Sprintf("r%d-%d", round, i), Entry{Throughput: float64(i)})
		}
		if err := c.Save(); err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(path)
		if !bytes.HasPrefix(raw, prev) {
			t.Fatalf("round %d rewrote earlier bytes", round)
		}
		if got := bytes.Count(raw[len(prev):], []byte("\n")); got != k {
			t.Fatalf("round %d: %d Puts appended %d lines", round, k, got)
		}
		prev = raw
	}
	c.Put("r0-0", Entry{Throughput: 42})
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c2.Get("r0-0"); got.Throughput != 42 {
		t.Fatalf("reload kept %v for a re-Put key, want the last record (42)", got.Throughput)
	}
	if c2.Len() != 9 {
		t.Fatalf("reloaded %d entries, want 9", c2.Len())
	}
}

// lines counts the newline-terminated lines of the file at path.
func lines(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(raw, []byte("\n"))
}

// TestConcurrentPutDuringSave hammers Put from several goroutines while
// Save runs repeatedly. The invariant: once all Puts have finished, one
// final Save persists every entry. Run under -race (CI does) this also
// proves Put and Save share the file safely.
func TestConcurrentPutDuringSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Saver: flush continuously while writers are active.
	var saverWg sync.WaitGroup
	saverWg.Add(1)
	go func() {
		defer saverWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := c.Save(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := fmt.Sprintf("g%d-i%d", g, i)
				c.Put(k, Entry{Throughput: float64(g*perG + i)})
				if got, ok := c.Get(k); !ok || got.Throughput != float64(g*perG+i) {
					t.Errorf("Get(%s) = %+v, %v", k, got, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	saverWg.Wait()

	// All Puts are done: the final Save must persist every entry.
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c2.Len(), goroutines*perG; got != want {
		t.Fatalf("reloaded cache has %d entries, want %d", got, want)
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			k := fmt.Sprintf("g%d-i%d", g, i)
			if _, ok := c2.Get(k); !ok {
				t.Fatalf("entry %s lost", k)
			}
		}
	}
}

func TestVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"version bump": fmt.Sprintf(`{"Version":%d}`, Version+1) + "\n" +
			`{"Key":"stale","Entry":{"Throughput":9}}` + "\n",
		// The older format: one JSON object, no header line.
		"single-object file": fmt.Sprintf(`{"Version":%d,"Entries":{"stale":{"Throughput":9}}}`, Version),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Len() != 0 {
			t.Fatalf("%s: served %d stale entries", name, c.Len())
		}
		if got := lines(t, path); got != 1 {
			t.Fatalf("%s: restarted file has %d lines, want the header only", name, got)
		}
	}
}

// TestCorruptFileIsAnError: a complete line that does not decode is not a
// crash shape, so Open fails instead of silently dropping entries.
func TestCorruptFileIsAnError(t *testing.T) {
	dir := t.TempDir()
	hdr := fmt.Sprintf(`{"Version":%d}`, Version) + "\n"
	for name, content := range map[string]string{
		"header": "{not json\n",
		"record": hdr + "{not json\n" + `{"Key":"k","Entry":{}}` + "\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Fatalf("Open of a cache with a corrupt %s did not fail", name)
		}
	}
}

func TestKeySensitivity(t *testing.T) {
	base := Key("4801d8", "haswell", "opts", 1)
	for name, k := range map[string]string{
		"block": Key("4801d9", "haswell", "opts", 1),
		"uarch": Key("4801d8", "skylake", "opts", 1),
		"opts":  Key("4801d8", "haswell", "opts2", 1),
		"seed":  Key("4801d8", "haswell", "opts", 2),
	} {
		if k == base {
			t.Errorf("changing %s does not change the key", name)
		}
	}
}

// TestCrashSweep cuts a saved cache at every byte offset and reopens it:
// the cache keeps exactly the records whose lines are whole and cuts the
// rest off. Separately, it zeroes each byte of the last record in turn: a
// damaged record is an error, except a lost newline, which is a torn
// append and drops only that record.
func TestCrashSweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("k%d", i), Entry{Throughput: float64(i) + 0.5, Counters: pipeline.Counters{Cycles: uint64(i)}})
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the length of the prefix holding the header and i records.
	var ends []int
	for i, b := range full {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != n+1 {
		t.Fatalf("saved cache has %d lines, want %d", len(ends), n+1)
	}

	cut := filepath.Join(dir, "cut.json")
	for k := 0; k <= len(full); k++ {
		if err := os.WriteFile(cut, full[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(cut)
		if err != nil {
			t.Fatalf("cut at %d: %v", k, err)
		}
		whole, keep := 0, ends[0] // records kept, bytes kept
		for i, e := range ends[1:] {
			if e <= k {
				whole, keep = i+1, e
			}
		}
		if c.Len() != whole {
			t.Fatalf("cut at %d: %d entries, want %d", k, c.Len(), whole)
		}
		for i := 0; i < whole; i++ {
			if e, ok := c.Get(fmt.Sprintf("k%d", i)); !ok || e.Throughput != float64(i)+0.5 {
				t.Fatalf("cut at %d: k%d = %+v, %v", k, i, e, ok)
			}
		}
		if raw, _ := os.ReadFile(cut); !bytes.Equal(raw, full[:keep]) {
			t.Fatalf("cut at %d: reopened file holds %d bytes, want the %d-byte whole-line prefix", k, len(raw), keep)
		}
	}

	for i := ends[n-1]; i < len(full); i++ {
		bad := append([]byte(nil), full...)
		bad[i] = 0
		if err := os.WriteFile(cut, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(cut)
		if i < len(full)-1 {
			if err == nil {
				t.Fatalf("zeroed byte %d of the last record: Open succeeded", i)
			}
			continue
		}
		if err != nil || c.Len() != n-1 {
			t.Fatalf("lost newline: err %v, %d entries, want %d", err, c.Len(), n-1)
		}
	}
}
