package corpus

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bhive/internal/x86"
)

// WriteCSV stores records in the suite's interchange format:
// a header line followed by "app,hex,freq" rows. A record whose app name
// would not read back as one field (a comma or a line break in it) fails
// the write instead of producing a row ReadCSV rejects.
func WriteCSV(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "app,hex,freq"); err != nil {
		return err
	}
	for i := range recs {
		if strings.ContainsAny(recs[i].App, ",\r\n") {
			return fmt.Errorf("corpus: record %d: app name %q cannot be a CSV field", i, recs[i].App)
		}
		hexStr, err := recs[i].Block.Hex()
		if err != nil {
			return fmt.Errorf("corpus: encode record %d: %w", i, err)
		}
		if _, err := fmt.Fprintf(bw, "%s,%s,%d\n", recs[i].App, hexStr, recs[i].Freq); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseError is a corpus CSV read failure attributed to one row. API
// clients submit corpora over the evaluation service, so "which line is
// bad" must survive as structured data, not just prose.
type ParseError struct {
	// Line is the 1-based CSV line of the offending row.
	Line int
	Err  error
}

func (e *ParseError) Error() string { return fmt.Sprintf("corpus: line %d: %v", e.Line, e.Err) }
func (e *ParseError) Unwrap() error { return e.Err }

// RawRecord is one corpus CSV row before block decoding: what auditing
// tools need so that undecodable hex is reported per row instead of
// aborting the whole read.
type RawRecord struct {
	App  string
	Hex  string
	Freq uint64
	// Line is the 1-based CSV line the row came from.
	Line int
}

// forEachRow drives the shared CSV row scan: header and blank lines are
// skipped, field count and frequency are validated, duplicate (app, hex)
// rows are rejected, and every error — including scanner failures such as
// an over-long line — carries the offending line number as a *ParseError.
func forEachRow(r io.Reader, row func(raw RawRecord) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	seen := make(map[string]int) // app\x00hex -> first line
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || (line == 1 && strings.HasPrefix(text, "app,")) {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 3 {
			return &ParseError{Line: line, Err: fmt.Errorf("want 3 fields, got %d", len(parts))}
		}
		freq, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return &ParseError{Line: line, Err: fmt.Errorf("bad frequency %q", parts[2])}
		}
		key := parts[0] + "\x00" + strings.ToLower(parts[1])
		if first, dup := seen[key]; dup {
			return &ParseError{Line: line, Err: fmt.Errorf("duplicate block row (same app and hex as line %d)", first)}
		}
		seen[key] = line
		if err := row(RawRecord{App: parts[0], Hex: parts[1], Freq: freq, Line: line}); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		// The scanner died reading the line after the last complete one.
		return &ParseError{Line: line + 1, Err: err}
	}
	return nil
}

// ReadCSVRaw loads corpus rows without decoding the hex. Malformed rows
// (wrong field count, bad frequency, duplicate app+hex) still fail the
// read with a *ParseError naming the offending line; hex validity is
// deliberately not checked — that is the auditor's job.
func ReadCSVRaw(r io.Reader) ([]RawRecord, error) {
	var out []RawRecord
	err := forEachRow(r, func(raw RawRecord) error {
		out = append(out, raw)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadCSV loads records written by WriteCSV (or by cmd/bhive-collect),
// decoding each block from its machine-code hex. Every failure is a
// *ParseError carrying the 1-based line of the offending row.
func ReadCSV(r io.Reader) ([]Record, error) {
	var out []Record
	err := forEachRow(r, func(raw RawRecord) error {
		block, err := x86.BlockFromHex(raw.Hex)
		if err != nil {
			return &ParseError{Line: raw.Line, Err: err}
		}
		out = append(out, Record{App: raw.App, Block: block, Freq: raw.Freq})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
