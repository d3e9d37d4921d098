package corpus

import (
	"bytes"
	"errors"
	"os"
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

// FuzzReadAsm fuzzes the assembly-listing front door. Invariants:
//
//   - ReadAsm never panics, whatever the text;
//   - every failure is a *ParseError that wraps an error and names a line
//     of the listing (1 ≤ Line ≤ lines+1; the extra line is where the
//     scanner stopped or an empty listing's first);
//   - a successful read survives both conversions the tools apply to it:
//     RawRecords (bhive-lint) and WriteCSV → ReadCSV (bhive-serve) keep
//     the same (app, canonical hex, freq) rows, in order.
func FuzzReadAsm(f *testing.F) {
	smoke, err := os.ReadFile("../../scripts/asm_smoke.asm")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(smoke))

	f.Add("@ gzip 12\nxor ecx, ecx\ndivl %ecx\n")
	f.Add("@,\nmov AX,[]")                   // comma in the app name
	f.Add("@ my,app\nnop\n")                 // comma in the app name
	f.Add("@ a,b 2\nnop\n")                  // comma, with a frequency
	f.Add("@\nnop\n")                        // header without an app
	f.Add("@ a 1 2\nnop\n")                  // too many header fields
	f.Add("@ a zero\nnop\n")                 // bad frequency
	f.Add("@ a\n")                           // empty block
	f.Add("nop\n")                           // instruction before a header
	f.Add("@ a\nnop\n@ a\nnop\n")            // duplicate block
	f.Add("@ a\nnop\n@ b\nnop\n")            // same code, other app
	f.Add("# only\n; comments\n\n")          // no blocks
	f.Add("@ a # trailing\nnop ; comment\n") // trailing comments
	f.Add("@ a\r\nnop\r\n")                  // CRLF line ends

	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ReadAsm(strings.NewReader(input))
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("ReadAsm error is not a *ParseError: %v", err)
			}
			lines := strings.Count(input, "\n")
			if input != "" && !strings.HasSuffix(input, "\n") {
				lines++
			}
			if pe.Line < 1 || pe.Line > lines+1 {
				t.Fatalf("ParseError.Line = %d for a %d-line listing", pe.Line, lines)
			}
			if pe.Unwrap() == nil {
				t.Fatal("ParseError wraps nothing")
			}
			return
		}

		raw, rerr := RawRecords(recs)
		if rerr != nil {
			t.Fatalf("RawRecords of a just-read listing failed: %v", rerr)
		}
		var buf bytes.Buffer
		if werr := WriteCSV(&buf, recs); werr != nil {
			t.Fatalf("WriteCSV of a just-read listing failed: %v", werr)
		}
		again, aerr := ReadCSV(&buf)
		if aerr != nil {
			t.Fatalf("CSV of a just-read listing does not read back: %v", aerr)
		}
		if len(raw) != len(recs) || len(again) != len(recs) {
			t.Fatalf("%d records became %d raw rows and %d CSV records", len(recs), len(raw), len(again))
		}
		for i := range recs {
			h, herr := recs[i].Block.Hex()
			h2, herr2 := again[i].Block.Hex()
			if herr != nil || herr2 != nil {
				t.Fatalf("record %d does not encode: %v, %v", i, herr, herr2)
			}
			want := RawRecord{App: recs[i].App, Hex: h, Freq: recs[i].Freq, Line: i + 1}
			if raw[i] != want {
				t.Fatalf("record %d: raw row %+v, want %+v", i, raw[i], want)
			}
			if again[i].App != want.App || h2 != want.Hex || again[i].Freq != want.Freq {
				t.Fatalf("record %d through CSV: (%s, %s, %d), want (%s, %s, %d)",
					i, again[i].App, h2, again[i].Freq, want.App, want.Hex, want.Freq)
			}
		}
	})
}
