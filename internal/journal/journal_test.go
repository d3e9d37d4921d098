package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readAll runs Read with a header that accepts any JSON object except
// {"reject":true} and collects the record lines it is handed.
func readAll(raw []byte) (valid int64, recs []string, err error) {
	valid, err = Read(raw, func(line []byte) (bool, error) {
		var h map[string]any
		if err := json.Unmarshal(line, &h); err != nil {
			return false, err
		}
		return h["reject"] != true, nil
	}, func(line []byte) error {
		if !json.Valid(line) {
			return errors.New("bad record")
		}
		recs = append(recs, string(line))
		return nil
	})
	return valid, recs, err
}

func TestRead(t *testing.T) {
	const hdr = `{"Version":1}` + "\n"
	cases := []struct {
		name    string
		raw     string
		valid   int
		recs    int
		wantErr string
	}{
		{"empty", "", 0, 0, ""},
		{"header without newline", `{"Version":1}`, 0, 0, ""},
		{"header only", hdr, len(hdr), 0, ""},
		{"rejected header", `{"reject":true}` + "\n{}\n", 0, 0, ""},
		{"records", hdr + "{}\n[1]\n", len(hdr) + 7, 2, ""},
		{"blank lines are skipped", hdr + "\n{}\n\n", len(hdr) + 5, 1, ""},
		{"torn tail", hdr + "{}\n[1", len(hdr) + 3, 1, ""},
		// Parses as JSON but has no newline: never committed, never applied.
		{"torn tail that parses", hdr + "{}\n[1]", len(hdr) + 3, 1, ""},
		{"bad header", "nope\n", 0, 0, "line 1:"},
		{"bad record", hdr + "{}\nnope\n{}\n", 0, 0, "line 3: bad record"},
	}
	for _, c := range cases {
		valid, recs, err := readAll([]byte(c.raw))
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want containing %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil || valid != int64(c.valid) || len(recs) != c.recs {
			t.Errorf("%s: valid %d, %d records, err %v; want %d, %d", c.name, valid, len(recs), err, c.valid, c.recs)
		}
	}
}

// TestOpenSyncsNewJournalDir: creating a journal — first open, or a
// restart after a rejected header — syncs the parent directory, so a crash
// cannot make the whole file vanish. Reopening a kept journal creates no
// entry and syncs none. A torn tail is cut off before the next append.
func TestOpenSyncsNewJournalDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "j")
	load := func(raw []byte) (int64, error) {
		v, _, err := readAll(raw)
		return v, err
	}
	open := func(hdr any, wantSyncs uint64) *Writer {
		t.Helper()
		before := dirSyncs.Load()
		w, err := Open(path, hdr, load)
		if err != nil {
			t.Fatal(err)
		}
		if got := dirSyncs.Load() - before; got != wantSyncs {
			t.Fatalf("Open synced the directory %d times, want %d", got, wantSyncs)
		}
		return w
	}

	w := open(map[string]int{"Version": 1}, 1)
	if err := w.Append([]byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"a":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w = open(map[string]int{"Version": 1}, 0)
	if err := w.Append([]byte(`{"a":2}`)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	raw, _ := os.ReadFile(path)
	if want := "{\"Version\":1}\n{\"a\":1}\n{\"a\":2}\n"; string(raw) != want {
		t.Fatalf("journal after torn-tail recovery = %q, want %q", raw, want)
	}

	if err := os.WriteFile(path, []byte(`{"reject":true}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w = open(map[string]int{"Version": 2}, 1)
	w.Close()
	raw, _ = os.ReadFile(path)
	if string(raw) != "{\"Version\":2}\n" {
		t.Fatalf("restarted journal = %q, want the new header only", raw)
	}
}

// TestWriterFlushOnly: appends inside an open group-commit window do not
// sync, one Flush syncs them all, and a Flush with nothing pending does no
// I/O. A group size below 1 syncs every append; the batching of larger
// groups is pinned by the checkpoint's TestCheckpointGroupCommit.
func TestWriterFlushOnly(t *testing.T) {
	w, err := Open(filepath.Join(t.TempDir(), "j"), struct{}{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetGroupCommit(8)
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte("{}")); err != nil {
			t.Fatal(err)
		}
	}
	if w.Syncs() != 0 {
		t.Fatalf("5 appends in a group of 8 synced %d times", w.Syncs())
	}
	for i := 0; i < 2; i++ {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if w.Syncs() != 1 {
		t.Fatalf("two Flushes synced %d times, want 1", w.Syncs())
	}
	w.SetGroupCommit(0)
	if err := w.Append([]byte("{}")); err != nil {
		t.Fatal(err)
	}
	if w.Syncs() != 2 {
		t.Fatalf("an append at group size 0 left %d syncs, want 2", w.Syncs())
	}
}

// TestWriteFileAtomicDirSync pins the durability discipline of whole-file
// writes (the server's request, result and error markers): after the
// rename lands, the parent directory must be fsynced, or a crash can roll
// the rename back and lose a "committed" result.json while the checkpoint
// journal says the job finished.
func TestWriteFileAtomicDirSync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.json")

	before := dirSyncs.Load()
	if err := WriteFileAtomic(path, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if got := dirSyncs.Load(); got != before+1 {
		t.Fatalf("dir syncs %d -> %d, want exactly one directory sync after the rename", before, got)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"ok":true}` {
		t.Fatalf("content %q", raw)
	}

	// No temp files may survive the commit.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}

	// Overwrite follows the same path (rename over an existing file).
	if err := WriteFileAtomic(path, []byte(`{"ok":false}`)); err != nil {
		t.Fatal(err)
	}
	if got := dirSyncs.Load(); got != before+2 {
		t.Fatalf("overwrite did not sync the directory (syncs %d, want %d)", got, before+2)
	}
}

// FuzzJournalRead throws arbitrary bytes at the shared loader, seeded with
// one file of each kind the system persists. Any input yields an error or
// a valid prefix, never a panic; the prefix is 0 or ends on a newline,
// the callbacks see only lines inside it, and reading the prefix alone, or
// the prefix plus a torn tail, gives the same result.
func FuzzJournalRead(f *testing.F) {
	for _, seed := range []string{
		// checkpoint journal
		`{"Version":1,"Fingerprint":"fp","ShardSize":4}` + "\n" +
			`{"Arch":"haswell","Shard":0,"Stage":"meas","Tp":[1,2.5,0,3],"Status":[0,0,1,0]}` + "\n" +
			`{"Arch":"haswell","Shard":0,"Stage":"pred","Preds":{"IACA":[1.1,null,2,3]}}` + "\n",
		// measurement trace, with a torn last entry
		`{"Version":1,"Backend":"sim","Fingerprint":"sim|{}"}` + "\n" +
			`{"Key":"ab","CPU":"haswell","Status":0,"Tp":1.25,"Counters":{"Cycles":125}}` + "\n" +
			`{"Key":"cd","CPU":"haswell","Sta`,
		// blank lines between records, which Read skips
		`{"Version":1}` + "\n\n" +
			`{"Key":"5f0c","Entry":{"Status":0,"Counters":{"Cycles":125}}}` + "\n\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// read returns the valid prefix and how many bytes the callbacks saw.
		read := func(in []byte) (valid int64, seen int, err error) {
			valid, err = Read(in, func(line []byte) (bool, error) {
				seen += len(line) + 1
				if !json.Valid(line) {
					return false, errors.New("bad header")
				}
				return len(line) > 2, nil // "{}" rejects the file
			}, func(line []byte) error {
				if len(line) == 0 || bytes.IndexByte(line, '\n') >= 0 {
					t.Fatalf("record callback got %q", line)
				}
				seen += len(line) + 1
				if !json.Valid(line) {
					return errors.New("bad record")
				}
				return nil
			})
			return valid, seen, err
		}
		valid, seen, err := read(raw)
		if err != nil {
			return
		}
		if valid < 0 || valid > int64(len(raw)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(raw))
		}
		if valid == 0 {
			return
		}
		if raw[valid-1] != '\n' {
			t.Fatalf("valid prefix %d does not end on a newline", valid)
		}
		if int64(seen) > valid {
			t.Fatalf("callbacks saw %d bytes, beyond the %d-byte valid prefix", seen, valid)
		}
		if bytes.IndexByte(raw[valid:], '\n') >= 0 {
			t.Fatalf("a complete line after the valid prefix %d was dropped", valid)
		}
		for _, in := range [][]byte{raw[:valid], append(raw[:valid:valid], `{"torn":`...)} {
			if again, _, err := read(in); err != nil || again != valid {
				t.Fatalf("re-read of the %d-byte prefix gave %d, %v", valid, again, err)
			}
		}
	})
}
