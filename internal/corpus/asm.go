package corpus

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bhive/internal/x86"
)

// RawRecords converts parsed records into the raw hex-row form the lint
// auditor consumes, canonicalizing each block through the encoder. Line is
// the record's 1-based ordinal in the corpus (an assembly listing has no
// per-row CSV line to report).
func RawRecords(recs []Record) ([]RawRecord, error) {
	out := make([]RawRecord, 0, len(recs))
	for i, rec := range recs {
		h, err := rec.Block.Hex()
		if err != nil {
			return nil, fmt.Errorf("block %d (%s): %w", i+1, rec.App, err)
		}
		out = append(out, RawRecord{App: rec.App, Hex: h, Freq: rec.Freq, Line: i + 1})
	}
	return out, nil
}

// ReadAsm loads a corpus from assembly listing text — the human-writable
// companion to the hex CSV interchange format. The listing is a sequence
// of blocks, each introduced by a header line
//
//	@ <app> [freq]
//
// followed by one assembly instruction per line (Intel or AT&T syntax,
// auto-detected per instruction exactly as x86.Parse does) until the next
// header or end of input. Blank lines and '#'/';' comments — whole-line or
// trailing — are skipped; a missing freq defaults to 1.
//
// Every block is canonicalized by round-tripping through the encoder:
// the Record holds the parsed instructions, and its hex (Block.Hex) is the
// same canonical machine code a hex submission of the block would carry,
// so downstream identities — checkpoint fingerprints, server job ids —
// cannot distinguish the two front doors. Duplicate (app, canonical code)
// blocks are rejected like duplicate CSV rows, and so is an app name the
// CSV format cannot carry (one with a comma). Every failure is a
// *ParseError carrying the 1-based listing line.
func ReadAsm(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)

	var (
		out     []Record
		insts   []x86.Inst // instructions of the open block
		app     string
		freq    uint64
		open    bool
		headAt  int // line of the open block's header
		lineNum int
	)
	seen := make(map[string]int) // app\x00hex -> first header line

	flush := func() error {
		if !open {
			return nil
		}
		if len(insts) == 0 {
			return &ParseError{Line: headAt, Err: fmt.Errorf("block %q has no instructions", app)}
		}
		block := &x86.Block{Insts: insts}
		hexStr, err := block.Hex()
		if err != nil {
			return &ParseError{Line: headAt, Err: fmt.Errorf("block %q does not encode: %w", app, err)}
		}
		key := app + "\x00" + hexStr
		if first, dup := seen[key]; dup {
			return &ParseError{Line: headAt, Err: fmt.Errorf("duplicate block (same app and code as line %d)", first)}
		}
		seen[key] = headAt
		out = append(out, Record{App: app, Block: block, Freq: freq})
		insts, open = nil, false
		return nil
	}

	for sc.Scan() {
		lineNum++
		text := sc.Text()
		if i := strings.IndexAny(text, "#;"); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "@") {
			if err := flush(); err != nil {
				return nil, err
			}
			fields := strings.Fields(text[1:])
			switch len(fields) {
			case 1:
				app, freq = fields[0], 1
			case 2:
				f, err := strconv.ParseUint(fields[1], 10, 64)
				if err != nil {
					return nil, &ParseError{Line: lineNum, Err: fmt.Errorf("bad frequency %q", fields[1])}
				}
				app, freq = fields[0], f
			default:
				return nil, &ParseError{Line: lineNum, Err: fmt.Errorf("want '@ <app> [freq]', got %q", text)}
			}
			if strings.Contains(app, ",") {
				return nil, &ParseError{Line: lineNum, Err: fmt.Errorf("app name %q contains a comma, which the CSV format cannot carry", app)}
			}
			open, headAt = true, lineNum
			continue
		}
		if !open {
			return nil, &ParseError{Line: lineNum, Err: fmt.Errorf("instruction before any '@ <app>' header")}
		}
		in, err := x86.ParseInst(text, x86.SyntaxAuto)
		if err != nil {
			return nil, &ParseError{Line: lineNum, Err: err}
		}
		insts = append(insts, in)
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{Line: lineNum + 1, Err: err}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, &ParseError{Line: 1, Err: fmt.Errorf("no blocks in assembly listing")}
	}
	return out, nil
}
