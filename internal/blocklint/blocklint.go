// Package blocklint is the static semantic analyzer over decoded x86-64
// basic blocks: it predicts, without timing the block, how the BHive
// measurement protocol will classify it, and computes per-block facts
// (def-use chains, loop-carried dependence height, memory-operand address
// classification, encode/decode round-trip fidelity).
//
// The verdict comes from the profiler's own functional pass
// (profiler.Functional): the unrolled program prepared at the high unroll
// factor and the single monitored run that maps every faulting page within
// the fault budget. Where that run stops, the block crashes; where its
// trace splits a cache line, the misaligned filter rejects it. Only the
// timing half of the protocol (the cycle-level runs, sample acceptance and
// the cache-miss check) is left out, so a non-OK prediction is exactly
// the status profiling yields, up to the timing-only preemptions
// whitelisted by Report.Agrees. That is what makes the -prescreen mode of
// bhive-eval/bhive-profile safe: skipping a statically rejected block
// never discards a measurable one.
//
// Every finding carries a machine-readable diagnostic code (BL001…); the
// catalogue is in DESIGN.md § Static block analysis.
package blocklint

import (
	"bytes"
	"cmp"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"bhive/internal/bound"
	"bhive/internal/memo"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// Code is a machine-readable diagnostic code.
type Code int

const (
	// CodeNoDecode (BL001): the hex does not decode as a basic block.
	CodeNoDecode Code = 1 + iota
	// CodeEmpty (BL002): the block has no instructions.
	CodeEmpty
	// CodeNoEncode (BL003): an instruction has no encoding, so the
	// profiler's Prepare step fails.
	CodeNoEncode
	// CodeRoundTripMismatch (BL004): decode→encode→decode does not
	// reproduce the instruction sequence.
	CodeRoundTripMismatch
	// CodeRoundTripLossy (BL005): the block re-encodes to different bytes
	// that decode back to the same instructions (a known-lossy encoding).
	CodeRoundTripLossy
	// CodeUnsupported (BL006): the target microarchitecture cannot
	// execute an instruction (e.g. AVX2 on Ivy Bridge).
	CodeUnsupported
	// CodeBadAddress (BL007): a memory access is guaranteed to fault in a
	// way the monitor cannot repair (invalid user address, or a fault in
	// an unmonitored timed run).
	CodeBadAddress
	// CodeDivideError (BL008): a division is guaranteed to raise #DE.
	CodeDivideError
	// CodePageBudget (BL009): the block touches more distinct pages than
	// the monitor's MaxFaults budget.
	CodePageBudget
	// CodeLineSplit (BL010): a timed-run access is guaranteed to cross a
	// cache-line boundary, so the misaligned filter rejects the block.
	CodeLineSplit
	// CodeNoMapping (BL011): the block accesses memory while page mapping
	// is disabled (the Agner-script baseline crashes on any access).
	CodeNoMapping
	// CodeInexact (BL012) is retired: it marked predictions limited by
	// unknown values, which the replayed functional pass never has. The
	// constant keeps later codes' numbers.
	CodeInexact
	// CodeUnmodeled (BL013): execution reaches a vector instruction, so
	// the verdict rests on the functional executor's vector semantics,
	// which are checked against the simulator only, not against hardware.
	CodeUnmodeled
	// CodeNoExec (BL014): the functional executor does not implement the
	// instruction, so execution is guaranteed to crash.
	CodeNoExec
	// CodeVacuousBounds (BL015): an instruction's opcode is missing from
	// the µop table, so its descriptor is the generic single-cycle ALU
	// fallback and the block's static cycle bounds are vacuous — they
	// still hold against the simulator (which uses the same fallback) but
	// say nothing about real hardware. Each firing is a table-coverage
	// gap.
	CodeVacuousBounds

	numCodes
)

// String renders the code in its canonical "BL007" form.
func (c Code) String() string { return fmt.Sprintf("BL%03d", int(c)) }

// MarshalText makes diagnostic codes render as "BL007" in JSON output.
func (c Code) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// Severity classifies a diagnostic's weight.
type Severity int

const (
	// SevInfo diagnostics describe analysis limitations or benign facts.
	SevInfo Severity = iota
	// SevWarn diagnostics are suspicious but do not change the verdict.
	SevWarn
	// SevReject diagnostics determine a non-OK predicted status.
	SevReject
)

func (s Severity) String() string {
	switch s {
	case SevReject:
		return "reject"
	case SevWarn:
		return "warn"
	}
	return "info"
}

// Severity returns the diagnostic class of a code.
func (c Code) Severity() Severity {
	switch c {
	case CodeNoDecode, CodeEmpty, CodeNoEncode, CodeUnsupported,
		CodeBadAddress, CodeDivideError, CodePageBudget, CodeLineSplit,
		CodeNoMapping, CodeNoExec:
		return SevReject
	case CodeRoundTripMismatch:
		return SevWarn
	}
	return SevInfo
}

// Diag is one finding, anchored to an instruction when one is at fault.
type Diag struct {
	Code Code `json:"code"`
	// Inst is the index of the offending instruction within the block
	// (-1 for block-level findings).
	Inst int `json:"inst"`
	// Offset is the byte offset of that instruction within the encoded
	// block (-1 when unknown).
	Offset int    `json:"offset"`
	Msg    string `json:"msg"`
}

func (d Diag) String() string {
	where := ""
	if d.Inst >= 0 {
		where = fmt.Sprintf(" inst %d", d.Inst)
		if d.Offset >= 0 {
			where += fmt.Sprintf(" (offset %d)", d.Offset)
		}
	}
	return fmt.Sprintf("%s%s: %s", d.Code, where, d.Msg)
}

// Report is the typed result of analyzing one block.
type Report struct {
	// Hex is the block's canonical hex (empty if it does not encode).
	Hex string `json:"hex,omitempty"`
	// NumInsts is the decoded instruction count.
	NumInsts int `json:"num_insts"`
	// Predicted is the profiler.Status the analysis predicts for the
	// block under the analyzer's options.
	Predicted profiler.Status `json:"-"`
	// PredictedName is Predicted's string form, for JSON output.
	PredictedName string `json:"predicted"`
	// Exact is always true: the prediction is a guarantee in both
	// directions (timing-only outcomes — cache-miss, unstable — remain
	// possible either way). It stays in reports for their consumers.
	Exact bool `json:"exact"`
	// Diags lists every finding, reject-severity first.
	Diags []Diag `json:"diags,omitempty"`
	// Facts carries the per-block static facts (nil when the block does
	// not decode).
	Facts *Facts `json:"facts,omitempty"`
	// Bounds carries the static cycle-bound analysis (nil when the block
	// does not decode or describe, or the analysis fails).
	Bounds *bound.Bounds `json:"bounds,omitempty"`
}

// Rejected reports whether the block is statically rejected: the
// prediction is a non-OK status, which the analyzer only emits when it is
// guaranteed. Prescreening skips exactly these blocks.
func (r *Report) Rejected() bool { return r.Predicted != profiler.StatusOK }

// Agrees reports whether a dynamic profiling status is consistent with
// the static prediction. Exact agreement always is; beyond it, the
// whitelisted pairs are:
//
//   - predicted OK: the timing-only rejects (cache-miss, unstable) cannot
//     be ruled out statically;
//   - predicted Misaligned: the sample-acceptance and cache-miss checks
//     run before the misaligned filter and may preempt it.
//
// Everything else is a genuine disagreement — one of the two sides is
// wrong about the machine.
func (r *Report) Agrees(dyn profiler.Status) bool {
	if r.Predicted == dyn {
		return true
	}
	switch r.Predicted {
	case profiler.StatusOK, profiler.StatusMisaligned:
		return dyn == profiler.StatusCacheMiss || dyn == profiler.StatusUnstable
	}
	return false
}

// Analyzer analyzes blocks for one microarchitecture under one set of
// measurement options. It is safe for concurrent use.
type Analyzer struct {
	// prof runs the functional pass; its CPU and Opts are the analyzer's.
	prof *profiler.Profiler
}

// New builds an analyzer mirroring a profiler.New(cpu, opts).
func New(cpu *uarch.CPU, opts profiler.Options) *Analyzer {
	return &Analyzer{prof: profiler.New(cpu, opts)}
}

// scratches holds the per-call scratches of every analyzer. One pool for
// all of them means a worker that lints a row on several µarchs in turn
// usually gets back the scratch of its last call, and with it that call's
// functional pass (scratch.last).
var scratches sync.Pool

// scratch is one analysis's working memory. Nothing in a Report points
// into it: diagnostics hold formatted strings, and the facts and bounds
// are values.
type scratch struct {
	raw       []byte        // AnalyzeHex: the row's bytes
	block     x86.Block     // AnalyzeHex: the row decoded into insts
	insts     []x86.Inst    // the decoded instructions
	args      []x86.Operand // their operands
	again     []x86.Inst    // roundTrip: the re-decoded instructions
	againArgs []x86.Operand // their operands
	ids       []memo.ID     // the block's interned instructions
	entries   []*memo.PreparedInst
	offsets   []int     // each instruction's byte offset in code
	code      []byte    // the canonical encoding
	hex       []byte    // code's hex
	defUse    []DepEdge // computeFacts: the def-use edges, before their exact copy
	aggs      []memAgg  // aggregate: per-instruction access aggregates
	last      lastPass
}

// lastPass is the outcome of the last functional pass a scratch ran,
// keyed by all it depends on once every instruction encodes and
// describes: the instructions (their memo ids), the options (unroll
// factors, page mapping, fault budget, misaligned filter) and the
// cache-line size. The µarch is not part of the key: execution is
// µarch-independent, as profiler.ProfileEach relies on for every key.
type lastPass struct {
	valid    bool // the fields below are one pass's complete record
	ids      []memo.ID
	opts     profiler.Options
	lineSize int
	diags    []Diag          // what replay added to the report
	status   profiler.Status // the predicted status
	observed bool            // the trace completed; s.aggs holds its aggregates
}

func (l *lastPass) matches(ids []memo.ID, opts profiler.Options, lineSize int) bool {
	return l.valid && l.opts == opts && l.lineSize == lineSize && slices.Equal(l.ids, ids)
}

// passHits and passRuns count the analyze calls that reached the
// functional pass and reused a scratch's last one, or ran their own.
var passHits, passRuns atomic.Int64

// getScratch takes a scratch from the shared pool; return it with
// scratches.Put.
func getScratch() *scratch {
	if v := scratches.Get(); v != nil {
		return v.(*scratch)
	}
	return new(scratch)
}

// AnalyzeHex analyzes a block given as corpus machine-code hex. Undecodable
// input yields a report with CodeNoDecode and a Crashed prediction (such a
// row cannot be profiled at all).
func (a *Analyzer) AnalyzeHex(hexStr string) *Report {
	s := getScratch()
	defer scratches.Put(s)
	return a.analyzeHex(s, hexStr)
}

func (a *Analyzer) analyzeHex(s *scratch, hexStr string) *Report {
	s.raw = append(s.raw[:0], hexStr...)
	n, err := hex.Decode(s.raw, s.raw)
	s.raw = s.raw[:n]
	if err != nil {
		return &Report{
			Predicted:     profiler.StatusCrashed,
			PredictedName: profiler.StatusCrashed.String(),
			Exact:         true,
			Diags:         []Diag{{Code: CodeNoDecode, Inst: -1, Offset: -1, Msg: fmt.Sprintf("not hex: %v", err)}},
		}
	}
	s.insts, s.args, err = x86.DecodeBlockInto(s.insts, s.args, s.raw)
	if err != nil {
		d := Diag{Code: CodeNoDecode, Inst: -1, Offset: -1, Msg: err.Error()}
		if de, ok := err.(*x86.DecodeErr); ok {
			d.Inst, d.Offset = de.Index, de.Offset
		}
		return &Report{
			Hex:           hexStr,
			Predicted:     profiler.StatusCrashed,
			PredictedName: profiler.StatusCrashed.String(),
			Exact:         true,
			Diags:         []Diag{d},
		}
	}
	s.block.Insts = s.insts
	return a.analyze(s, &s.block, s.raw, hexStr)
}

// Analyze analyzes a decoded block.
func (a *Analyzer) Analyze(b *x86.Block) *Report {
	s := getScratch()
	defer scratches.Put(s)
	return a.analyze(s, b, nil, "")
}

// analyze runs the full pipeline in s; orig, when non-nil, is the block's
// original encoding (for round-trip fidelity checking), and hexStr its
// hex as given, which the report reuses when it is the canonical hex.
func (a *Analyzer) analyze(s *scratch, b *x86.Block, orig []byte, hexStr string) *Report {
	rep := &Report{NumInsts: len(b.Insts), Predicted: profiler.StatusOK, Exact: true}
	defer func() {
		rep.PredictedName = rep.Predicted.String()
		sortDiags(rep.Diags)
	}()

	// Mirror profiler.Profile: the empty block is Crashed outright.
	if len(b.Insts) == 0 {
		rep.Predicted = profiler.StatusCrashed
		rep.addDiag(Diag{Code: CodeEmpty, Inst: -1, Offset: -1, Msg: "empty block cannot be profiled"})
		return rep
	}

	n := len(b.Insts)
	cpu := a.prof.CPU
	lo, hi := a.prof.Opts.UnrollFactors(n)

	// Mirror machine.PrepareUnrolled: encode then describe each distinct
	// instruction in order; the first failure decides the status. The
	// block is interned and resolved once; every later stage, the
	// functional pass included, reads the entries.
	s.ids = memo.InternBlock(s.ids[:0], b)
	s.entries = memo.For(cpu).ResolveIDs(s.entries[:0], s.ids)
	entries := s.entries
	s.offsets = slices.Grow(s.offsets[:0], n)[:n]
	offsets := s.offsets
	code := s.code[:0]
	for i, e := range entries {
		off := len(code)
		offsets[i] = off
		if e.EncErr != nil {
			rep.Predicted = profiler.StatusCrashed
			rep.addDiag(Diag{Code: CodeNoEncode, Inst: i, Offset: off,
				Msg: fmt.Sprintf("%s: %v", b.Insts[i].String(), e.EncErr)})
			return rep
		}
		if err := e.DescErr; err != nil {
			if _, ok := err.(*uarch.UnsupportedError); ok {
				rep.Predicted = profiler.StatusUnsupported
				rep.addDiag(Diag{Code: CodeUnsupported, Inst: i, Offset: off, Msg: err.Error()})
			} else {
				rep.Predicted = profiler.StatusCrashed
				rep.addDiag(Diag{Code: CodeNoEncode, Inst: i, Offset: off, Msg: err.Error()})
			}
			return rep
		}
		code = append(code, e.Raw...)
	}
	s.code = code

	s.hex = hex.AppendEncode(s.hex[:0], code)
	rep.Hex = hexStr
	if string(s.hex) != hexStr {
		rep.Hex = string(s.hex)
	}
	a.roundTrip(s, rep, b.Insts, code, orig)

	rep.Facts = computeFacts(s, b.Insts, entries, offsets, lo, hi, len(code)*hi)

	// Static cycle bounds over the same descriptors; the dependence facts
	// come from the same simulator-congruent chain analysis the bounds use
	// (rename-aware, address/data asymmetric, store µops excluded from
	// chains). DepHeight rounds the exact ratio to the nearest cycle,
	// exact halves down.
	if bs, err := bound.FromPrepared(cpu, entries); err == nil {
		rep.Bounds = bs
		rep.Facts.CritLatency = bs.CritPath
		rep.Facts.DepHeight = int(math.Ceil(bs.DepChain - 0.5))
	}
	for i, e := range entries {
		if e.Desc.Generic {
			rep.addDiag(Diag{Code: CodeVacuousBounds, Inst: i, Offset: offsets[i],
				Msg: fmt.Sprintf("%s: no µop table entry; bounds assume the generic 1-cycle ALU fallback", b.Insts[i].String())})
		}
	}

	// The profiler's own functional pass decides the verdict. Every
	// return before this point is an encode or describe failure, so the
	// pass and its replay depend on nothing outside the key of s.last.
	opts, lineSize := a.prof.Opts, a.lineSize()
	last := &s.last
	if last.matches(s.ids, opts, lineSize) {
		passHits.Add(1)
		rep.Diags = append(rep.Diags, last.diags...)
		if last.observed {
			fold(s.aggs, rep.Facts)
		}
		rep.Predicted = last.status
		return rep
	}
	passRuns.Add(1)
	last.valid = false
	first := len(rep.Diags)
	a.prof.FunctionalResolved(b.Insts, entries, func(pass *profiler.Pass) {
		rep.Predicted = a.replay(s, rep, b.Insts, pass)
		last.observed = pass.Err == nil
	})
	last.ids = append(last.ids[:0], s.ids...)
	last.opts, last.lineSize = opts, lineSize
	last.diags = append(last.diags[:0], rep.Diags[first:]...)
	last.status = rep.Predicted
	last.valid = true
	return rep
}

// roundTrip checks decode→encode→decode fidelity: code is the block's
// canonical re-encoding, orig its original bytes (nil if unknown). When
// code equals orig there is nothing to find: insts were decoded from
// orig, so decoding code yields them again, and the encoding is not
// lossy. Otherwise code is re-decoded into s.
func (a *Analyzer) roundTrip(s *scratch, rep *Report, insts []x86.Inst, code, orig []byte) {
	if orig != nil && bytes.Equal(orig, code) {
		return
	}
	again, args, err := x86.DecodeBlockInto(s.again, s.againArgs, code)
	s.again, s.againArgs = again, args
	if err != nil {
		d := Diag{Code: CodeRoundTripMismatch, Inst: -1, Offset: -1,
			Msg: fmt.Sprintf("re-encoded block does not decode: %v", err)}
		if de, ok := err.(*x86.DecodeErr); ok {
			d.Inst, d.Offset = de.Index, de.Offset
		}
		rep.addDiag(d)
		return
	}
	if len(again) != len(insts) {
		rep.addDiag(Diag{Code: CodeRoundTripMismatch, Inst: -1, Offset: -1,
			Msg: fmt.Sprintf("round trip yields %d instructions, want %d", len(again), len(insts))})
		return
	}
	for i := range insts {
		if insts[i].Op != again[i].Op || !slices.Equal(insts[i].Args, again[i].Args) {
			rep.addDiag(Diag{Code: CodeRoundTripMismatch, Inst: i, Offset: -1,
				Msg: fmt.Sprintf("round trip changes %s to %s", insts[i].String(), again[i].String())})
			return
		}
	}
	if orig != nil && !bytes.Equal(orig, code) {
		rep.addDiag(Diag{Code: CodeRoundTripLossy, Inst: -1, Offset: -1,
			Msg: fmt.Sprintf("re-encodes to %d bytes differing from the %d original (same instructions)", len(code), len(orig))})
	}
}

func (r *Report) addDiag(d Diag) { r.Diags = append(r.Diags, d) }

// sortDiags orders reject diagnostics first, then warns, then infos,
// preserving discovery order within a severity.
func sortDiags(ds []Diag) {
	slices.SortStableFunc(ds, func(x, y Diag) int {
		return cmp.Compare(y.Code.Severity(), x.Code.Severity())
	})
}
