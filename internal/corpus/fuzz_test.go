package corpus

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzReadCSV fuzzes the corpus interchange parser. Invariants:
//
//   - ReadCSV never panics, whatever the bytes;
//   - every failure is a *ParseError carrying a plausible line number
//     (the evaluation service surfaces it as structured data);
//   - a successful read round-trips: WriteCSV of the records re-reads to
//     the same corpus, and ReadCSVRaw agrees row-for-row.
func FuzzReadCSV(f *testing.F) {
	// The paper corpus in interchange form (tiny sample) seeds the happy
	// path with real generated blocks.
	var sample bytes.Buffer
	if err := WriteCSV(&sample, GenerateAll(0.0002, 7)); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.String())

	f.Add("app,hex,freq\ngzip,4889c8,12\n")
	f.Add("gzip,4889c8,12\n")                             // no header
	f.Add("app,hex,freq\ngzip,4889c8\n")                  // field count
	f.Add("app,hex,freq\ngzip,4889c8,notanumber\n")       // bad frequency
	f.Add("app,hex,freq\ngzip,zz,1\n")                    // bad hex
	f.Add("app,hex,freq\ngzip,4889c8,1\ngzip,4889c8,2\n") // duplicate row
	f.Add("app,hex,freq\ngzip,4889C8,1\ngzip,4889c8,2\n") // duplicate, case-folded hex
	f.Add("")
	f.Add("\n\n\n")
	f.Add("app,hex,freq\n" + strings.Repeat("a", 1<<20)) // over-long line
	f.Add("app,hex,freq\ngzip,,1\n")                     // empty block

	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("ReadCSV error is not a *ParseError: %v", err)
			}
			if pe.Line < 1 {
				t.Fatalf("ParseError.Line = %d, want >= 1", pe.Line)
			}
			if pe.Unwrap() == nil {
				t.Fatal("ParseError wraps nothing")
			}
			return
		}

		// Raw reading must accept everything the strict reader accepts,
		// row for row.
		raw, rerr := ReadCSVRaw(strings.NewReader(input))
		if rerr != nil {
			t.Fatalf("ReadCSV ok but ReadCSVRaw failed: %v", rerr)
		}
		if len(raw) != len(recs) {
			t.Fatalf("raw rows = %d, decoded records = %d", len(raw), len(recs))
		}

		// Write/read round trip preserves the corpus.
		var buf bytes.Buffer
		if werr := WriteCSV(&buf, recs); werr != nil {
			t.Fatalf("WriteCSV of a just-read corpus failed: %v", werr)
		}
		again, aerr := ReadCSV(&buf)
		if aerr != nil {
			t.Fatalf("round trip failed: %v", aerr)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip: %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i].App != recs[i].App || again[i].Freq != recs[i].Freq {
				t.Fatalf("record %d changed: (%s, %d) -> (%s, %d)",
					i, recs[i].App, recs[i].Freq, again[i].App, again[i].Freq)
			}
			h1, e1 := recs[i].Block.Hex()
			h2, e2 := again[i].Block.Hex()
			if e1 != nil || e2 != nil || h1 != h2 {
				t.Fatalf("record %d block hex changed: %q -> %q (%v, %v)", i, h1, h2, e1, e2)
			}
		}
	})
}
