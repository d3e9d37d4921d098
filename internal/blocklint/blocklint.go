// Package blocklint is the static semantic analyzer over decoded x86-64
// basic blocks: it predicts, without running the machine, how the BHive
// measurement protocol will classify a block, and computes per-block facts
// (def-use chains, loop-carried dependence height, memory-operand address
// classification, encode/decode round-trip fidelity).
//
// The core is an abstract interpreter (absexec.go) that mirrors
// internal/exec bit-exactly for the modeled integer subset, over a
// Known/Unknown value domain, and replays the profiler's exact run
// sequence: the monitored mapping run and the timed run at the high unroll
// factor, then both again at the low factor, with memory persisting across
// runs and registers re-initialized — exactly what internal/profiler
// executes. Because every Unknown is propagated conservatively, a non-OK
// prediction is a guarantee: the dynamic protocol must reject the block
// with that status (or with one of the whitelisted timing-only preemptions
// — see Report.Agrees). That soundness property is what makes the
// -prescreen mode of bhive-eval/bhive-profile safe: skipping a statically
// rejected block never discards a measurable one.
//
// Every finding carries a machine-readable diagnostic code (BL001…); the
// catalogue is in DESIGN.md § Static block analysis.
package blocklint

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"

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
	// CodeInexact (BL012): unknown values reached a point that may crash;
	// the prediction is conservative (OK unless proven otherwise).
	CodeInexact
	// CodeUnmodeled (BL013): a vector/unmodeled instruction was treated
	// conservatively (its outputs are unknown to the analyzer).
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
	// Exact reports whether the prediction is a guarantee in both
	// directions: a non-OK prediction is always guaranteed; an OK
	// prediction is guaranteed crash-free only when Exact (timing-only
	// outcomes — cache-miss, unstable — remain possible either way).
	Exact bool `json:"exact"`
	// Diags lists every finding, reject-severity first.
	Diags []Diag `json:"diags,omitempty"`
	// Facts carries the per-block static facts (nil when the block does
	// not decode).
	Facts *Facts `json:"facts,omitempty"`
	// Bounds carries the static cycle-bound analysis (nil when the block
	// does not decode or describe).
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
//   - predicted OK, inexact: unknown values limited the analysis, so any
//     dynamic outcome except Unsupported is possible (support is decided
//     purely statically and is never inexact);
//   - predicted OK, exact: the timing-only rejects (cache-miss, unstable)
//     cannot be ruled out statically;
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
	case profiler.StatusOK:
		if !r.Exact {
			return dyn != profiler.StatusUnsupported
		}
		return dyn == profiler.StatusCacheMiss || dyn == profiler.StatusUnstable
	case profiler.StatusMisaligned:
		return dyn == profiler.StatusCacheMiss || dyn == profiler.StatusUnstable
	}
	return false
}

// Analyzer analyzes blocks for one microarchitecture under one set of
// measurement options. It is stateless and safe for concurrent use.
type Analyzer struct {
	CPU  *uarch.CPU
	Opts profiler.Options

	// LegacyDepHeights restores the pre-bound dependence-height model for
	// Facts (string-resource def-use over summed µop latencies, including
	// store µops and address reads on every instruction). The default
	// model is internal/bound's simulator-congruent chain analysis, which
	// the static cycle bounds are built on.
	LegacyDepHeights bool
}

// New builds an analyzer mirroring a profiler.New(cpu, opts).
func New(cpu *uarch.CPU, opts profiler.Options) *Analyzer {
	return &Analyzer{CPU: cpu, Opts: opts}
}

// AnalyzeHex analyzes a block given as corpus machine-code hex. Undecodable
// input yields a report with CodeNoDecode and a Crashed prediction (such a
// row cannot be profiled at all).
func (a *Analyzer) AnalyzeHex(hexStr string) *Report {
	raw, err := hex.DecodeString(hexStr)
	if err != nil {
		return &Report{
			Predicted:     profiler.StatusCrashed,
			PredictedName: profiler.StatusCrashed.String(),
			Exact:         true,
			Diags:         []Diag{{Code: CodeNoDecode, Inst: -1, Offset: -1, Msg: fmt.Sprintf("not hex: %v", err)}},
		}
	}
	insts, err := x86.DecodeBlock(raw)
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
	return a.analyze(&x86.Block{Insts: insts}, raw)
}

// Analyze analyzes a decoded block.
func (a *Analyzer) Analyze(b *x86.Block) *Report { return a.analyze(b, nil) }

// analyze runs the full pipeline; orig, when non-nil, is the block's
// original encoding (for round-trip fidelity checking).
func (a *Analyzer) analyze(b *x86.Block, orig []byte) *Report {
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
	lo, hi := a.Opts.UnrollFactors(n)

	// Mirror machine.PrepareUnrolled: encode then describe each distinct
	// instruction in order; the first failure decides the status. Each
	// instruction is one memo lookup; every later stage reads its entry.
	arch := memo.For(a.CPU)
	entries := make([]*memo.PreparedInst, n)
	raws := make([][]byte, n)
	descs := make([]uarch.Desc, n)
	offsets := make([]int, n)
	off := 0
	for i := 0; i < n; i++ {
		offsets[i] = off
		e := arch.Prepared(&b.Insts[i])
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
		entries[i], raws[i], descs[i] = e, e.Raw, e.Desc
		off += len(e.Raw)
	}

	var code []byte
	for i := 0; i < n; i++ {
		code = append(code, raws[i]...)
	}
	rep.Hex = hex.EncodeToString(code)
	a.roundTrip(rep, b.Insts, code, orig)

	rep.Facts = computeFacts(b.Insts, descs, offsets, lo, hi, len(code)*hi)

	// Static cycle bounds over the same descriptors; unless the legacy
	// model is requested, the dependence facts come from the same
	// simulator-congruent chain analysis the bounds use (rename-aware,
	// address/data asymmetric, store µops excluded from chains).
	rep.Bounds = bound.FromPrepared(a.CPU, entries)
	if !a.LegacyDepHeights {
		rep.Facts.CritLatency = rep.Bounds.CritPath
		rep.Facts.DepHeight = int(rep.Bounds.DepChain + 0.5)
	}
	for i := range descs {
		if descs[i].Generic {
			rep.addDiag(Diag{Code: CodeVacuousBounds, Inst: i, Offset: offsets[i],
				Msg: fmt.Sprintf("%s: no µop table entry; bounds assume the generic 1-cycle ALU fallback", b.Insts[i].String())})
		}
	}

	// The abstract replay of the measurement protocol.
	it := newInterp(a, b.Insts, raws, hi)
	status, exact := it.replay(lo, hi)
	rep.Predicted = status
	rep.Exact = exact
	rep.Diags = append(rep.Diags, it.diags...)
	it.fillMemFacts(rep.Facts)
	return rep
}

// roundTrip checks decode→encode→decode fidelity: code is the block's
// canonical re-encoding, orig its original bytes (nil if unknown).
func (a *Analyzer) roundTrip(rep *Report, insts []x86.Inst, code, orig []byte) {
	again, err := x86.DecodeBlock(code)
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
		if !reflect.DeepEqual(insts[i], again[i]) {
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
	if len(ds) < 2 {
		return
	}
	ordered := make([]Diag, 0, len(ds))
	for sev := SevReject; sev >= SevInfo; sev-- {
		for _, d := range ds {
			if d.Code.Severity() == sev {
				ordered = append(ordered, d)
			}
		}
	}
	copy(ds, ordered)
}
