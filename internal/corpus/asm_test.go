package corpus

import (
	"errors"
	"strings"
	"testing"

	"bhive/internal/x86"
)

// TestReadAsmBasic: a well-formed listing with headers, comments, mixed
// Intel/AT&T syntax and an explicit frequency parses into records whose
// canonical hex matches what a CSV submission of the same blocks carries.
func TestReadAsmBasic(t *testing.T) {
	listing := `
# leading comment
@ gcc 12
xor ecx, ecx        # intel operand order
divl %ecx           ; at&t operand order

@ llvm
nop
`
	recs, err := ReadAsm(strings.NewReader(listing))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		app  string
		freq uint64
		hex  string
	}{
		{"gcc", 12, "31c9f7f1"},
		{"llvm", 1, "90"},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		r := recs[i]
		if r.App != w.app || r.Freq != w.freq {
			t.Errorf("record %d = (%s, %d), want (%s, %d)", i, r.App, r.Freq, w.app, w.freq)
		}
		h, err := r.Block.Hex()
		if err != nil {
			t.Fatalf("record %d does not encode: %v", i, err)
		}
		if h != w.hex {
			t.Errorf("record %d hex = %s, want %s", i, h, w.hex)
		}
	}
}

// TestReadAsmMatchesCSV: reading a corpus as assembly and as hex CSV must
// produce identical records — the invariant the server's job-id unification
// rests on.
func TestReadAsmMatchesCSV(t *testing.T) {
	asmRecs, err := ReadAsm(strings.NewReader("@ a 2\nadd rax, rbx\nnop\n@ b\nimul eax, ecx, 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, asmRecs); err != nil {
		t.Fatal(err)
	}
	csvRecs, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvRecs) != len(asmRecs) {
		t.Fatalf("round trip changed record count: %d -> %d", len(asmRecs), len(csvRecs))
	}
	for i := range asmRecs {
		ah, _ := asmRecs[i].Block.Hex()
		ch, _ := csvRecs[i].Block.Hex()
		if ah != ch || asmRecs[i].App != csvRecs[i].App || asmRecs[i].Freq != csvRecs[i].Freq {
			t.Errorf("record %d drifted through CSV: (%s,%s,%d) -> (%s,%s,%d)",
				i, asmRecs[i].App, ah, asmRecs[i].Freq, csvRecs[i].App, ch, csvRecs[i].Freq)
		}
	}
}

// TestReadAsmErrors: every malformed listing fails with a *ParseError
// pointing at the offending 1-based line.
func TestReadAsmErrors(t *testing.T) {
	cases := []struct {
		name, in string
		wantLine int
		wantSub  string
	}{
		{"empty", "", 1, "no blocks"},
		{"comments only", "# nothing\n; here\n", 1, "no blocks"},
		{"inst before header", "nop\n", 1, "before any"},
		{"bad freq", "@ app zero\nnop\n", 1, "bad frequency"},
		{"too many fields", "@ app 1 extra\nnop\n", 1, "want '@ <app> [freq]'"},
		{"empty block", "@ a\n@ b\nnop\n", 1, "no instructions"},
		{"empty trailing block", "@ a\nnop\n@ b\n", 3, "no instructions"},
		{"bad instruction", "@ a\nnop\nbogus xyz\n", 3, ""},
		{"duplicate block", "@ a\nnop\n@ a\nnop\n", 3, "duplicate"},
		{"comma in app", "@ a\nnop\n@ my,app 2\nnop\n", 3, "contains a comma"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadAsm(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("ReadAsm accepted a malformed listing")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *ParseError", err)
			}
			if pe.Line != tc.wantLine {
				t.Errorf("error line = %d, want %d (%v)", pe.Line, tc.wantLine, err)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestWriteCSVRejectsUnwritableApp: an app name that would not read back
// as one CSV field fails the write; nothing past the header is written.
func TestWriteCSVRejectsUnwritableApp(t *testing.T) {
	block := &x86.Block{Insts: []x86.Inst{{Op: x86.NOP}}}
	for _, app := range []string{"my,app", "a\nb", "a\rb"} {
		var sb strings.Builder
		err := WriteCSV(&sb, []Record{{App: "ok", Block: block, Freq: 1}, {App: app, Block: block, Freq: 1}})
		if err == nil || !strings.Contains(err.Error(), "record 1") {
			t.Errorf("WriteCSV of app %q: err = %v, want a record 1 error", app, err)
		}
		if strings.Contains(sb.String(), app) {
			t.Errorf("WriteCSV of app %q wrote it: %q", app, sb.String())
		}
	}
}

// TestRawRecords: the lint-facing conversion canonicalizes hex and numbers
// records by ordinal.
func TestRawRecords(t *testing.T) {
	recs, err := ReadAsm(strings.NewReader("@ a\nnop\n@ b 5\nxor ecx, ecx\n"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RawRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].Hex != "90" || rows[0].Line != 1 || rows[0].App != "a" {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].Hex != "31c9" || rows[1].Line != 2 || rows[1].Freq != 5 {
		t.Errorf("row 1 = %+v", rows[1])
	}
}
