package blocklint

import (
	"bhive/internal/memo"
	"bhive/internal/x86"
)

// Facts carries the per-block static facts the analyzer derives from the
// instructions, plus the observed-address aggregates read off the
// profiler's functional pass.
type Facts struct {
	// NumInsts is the block length in instructions.
	NumInsts int `json:"num_insts"`
	// UnrollLo and UnrollHi are the unroll factors the profiler will use
	// for this block under the analyzer's options.
	UnrollLo int `json:"unroll_lo"`
	UnrollHi int `json:"unroll_hi"`
	// CodeBytes is the encoded size of the hi-unrolled program — the
	// instruction footprint the L1I cache must hold.
	CodeBytes int `json:"code_bytes"`
	// DepHeight is the steady-state latency of one iteration's critical
	// dependence chain, in cycles: the increase in completion time per
	// additional unrolled copy once carried chains dominate. 0 means no
	// loop-carried dependence constrains throughput.
	DepHeight int `json:"dep_height"`
	// CritLatency is the latency-weighted critical path through a single
	// iteration starting from clean state.
	CritLatency int `json:"crit_latency"`
	// LoopCarried lists the resources (registers, "flags") that are both
	// written by the block and consumed by the next iteration before being
	// overwritten — the carriers of cross-iteration dependences.
	LoopCarried []string `json:"loop_carried,omitempty"`
	// DefUse lists the intra-block def-use edges.
	DefUse []DepEdge `json:"def_use,omitempty"`
	// Mem describes every memory-accessing instruction.
	Mem []MemFact `json:"mem,omitempty"`
}

// DepEdge is one def-use edge: To reads a resource last written by From.
// A carried edge (From in the previous iteration) has Carried set.
type DepEdge struct {
	From     int    `json:"from"`
	To       int    `json:"to"`
	Resource string `json:"resource"`
	Carried  bool   `json:"carried,omitempty"`
}

// MemFact describes one memory-accessing instruction: the static shape of
// its address operand plus, when the functional pass reached it, the
// realized access pattern in the timed run.
type MemFact struct {
	// Inst and Offset locate the instruction in the block.
	Inst   int `json:"inst"`
	Offset int `json:"offset"`
	// Class is the static address shape: "rsp-relative", "rip-relative",
	// "absolute", "indexed", or "base-relative".
	Class string `json:"class"`
	// Loads and Stores report the access direction; both for RMW forms.
	Loads  bool `json:"loads"`
	Stores bool `json:"stores"`
	// Size is the access width in bytes.
	Size int `json:"size"`
	// Disp is the static displacement; DispMod64 is its residue in the
	// cache line, which decides line-splitting for aligned bases.
	Disp      int32 `json:"disp"`
	DispMod64 int   `json:"disp_mod64"`

	// Observed reports whether the functional pass completed and executed
	// this instruction's accesses; the fields below are then exact for the
	// timed run at the high unroll factor.
	Observed bool `json:"observed"`
	// Accesses is the number of accesses in that run.
	Accesses int `json:"accesses,omitempty"`
	// Align is the largest power of two dividing every observed address.
	Align uint64 `json:"align,omitempty"`
	// Stride is the constant inter-access address delta; StrideKnown is
	// false when the deltas vary (or only one access was seen).
	Stride      int64 `json:"stride,omitempty"`
	StrideKnown bool  `json:"stride_known,omitempty"`
	// Pages is the number of distinct virtual pages touched.
	Pages int `json:"pages,omitempty"`
	// Splits reports whether any observed access crossed a cache line.
	Splits bool `json:"splits,omitempty"`
}

// numRes counts the dependence-tracking resources: the pipeline register
// ids of the memo's register sets (0–15 GPRs, 16–31 vector registers,
// memo.RegFlags the status flags).
const numRes = memo.RegFlags + 1

// resNames names each resource as reports print it: a GPR by its 64-bit
// register, a vector register by its YMM register, the flags as "flags".
var resNames = func() (names [numRes]string) {
	for i := 0; i < 16; i++ {
		names[i] = (x86.RAX + x86.Reg(i)).String()
		names[16+i] = (x86.Y0 + x86.Reg(i)).String()
	}
	names[memo.RegFlags] = "flags"
	return names
}()

// computeFacts derives the static facts for one block. entries and
// offsets are indexed like insts; codeBytes is the hi-unrolled footprint.
// The dependence heights and the observed memory fields are filled in
// later, from the bound analysis and the functional pass. Each slice is
// allocated once, at its exact size, and stays nil when empty.
func computeFacts(s *scratch, insts []x86.Inst, entries []*memo.PreparedInst, offsets []int, lo, hi, codeBytes int) *Facts {
	f := &Facts{
		NumInsts:  len(insts),
		UnrollLo:  lo,
		UnrollHi:  hi,
		CodeBytes: codeBytes,
	}

	// Def-use edges within one iteration and carried into the next, over
	// each entry's register sets: its address registers, then its data
	// registers. lastDef holds each resource's defining instruction in
	// the current iteration; a resource still undefined at a read comes
	// from the previous iteration's last writer (a carried edge) if the
	// block writes it at all. The edges collect in s, the carried
	// resources in discovery order in carriedOrder.
	var finalDef, lastDef [numRes]int32
	for r := range finalDef {
		finalDef[r], lastDef[r] = -1, -1
	}
	for i, e := range entries {
		for _, w := range e.Writes {
			finalDef[w] = int32(i)
		}
	}
	var (
		carried      uint64
		carriedOrder [numRes]uint8
		numCarried   int
	)
	edges := s.defUse[:0]
	for i, e := range entries {
		var seen uint64 // resources with an edge into i already
		for _, set := range [2][]uint8{e.Addr, e.Data} {
			for _, r := range set {
				if seen&(1<<r) != 0 {
					continue
				}
				seen |= 1 << r
				edge := DepEdge{To: i, Resource: resNames[r]}
				switch {
				case lastDef[r] >= 0:
					edge.From = int(lastDef[r])
				case finalDef[r] >= 0:
					edge.From, edge.Carried = int(finalDef[r]), true
					if carried&(1<<r) == 0 {
						carried |= 1 << r
						carriedOrder[numCarried] = r
						numCarried++
					}
				default:
					continue // read of pristine initial state
				}
				edges = append(edges, edge)
			}
		}
		for _, w := range e.Writes {
			lastDef[w] = int32(i)
		}
	}
	s.defUse = edges
	if len(edges) > 0 {
		f.DefUse = make([]DepEdge, len(edges))
		copy(f.DefUse, edges)
	}
	if numCarried > 0 {
		f.LoopCarried = make([]string, numCarried)
		for j, r := range carriedOrder[:numCarried] {
			f.LoopCarried[j] = resNames[r]
		}
	}

	// Static memory-operand classification (observed fields come later).
	numMem := 0
	for i := range insts {
		if memFactArg(&insts[i]) >= 0 {
			numMem++
		}
	}
	if numMem > 0 {
		f.Mem = make([]MemFact, 0, numMem)
	}
	for i := range insts {
		in := &insts[i]
		k := memFactArg(in)
		if k < 0 {
			continue
		}
		rd, wr := in.ArgIO(k)
		m := in.Args[k].Mem
		f.Mem = append(f.Mem, MemFact{
			Inst:      i,
			Offset:    offsets[i],
			Class:     classifyAddr(m),
			Loads:     rd,
			Stores:    wr,
			Size:      int(m.Size),
			Disp:      m.Disp,
			DispMod64: int(((int64(m.Disp) % 64) + 64) % 64),
		})
	}
	return f
}

// memFactArg returns the index of in's memory operand when it accesses
// memory (LEA only computes an address), or -1.
func memFactArg(in *x86.Inst) int {
	if in.Op == x86.LEA {
		return -1
	}
	return in.MemArg()
}

// classifyAddr buckets a memory operand by its static address shape.
func classifyAddr(m x86.Mem) string {
	switch {
	case m.Base == x86.RSP && m.Index == x86.RegNone:
		return "rsp-relative"
	case m.Base == x86.RIP:
		return "rip-relative"
	case m.Base == x86.RegNone && m.Index == x86.RegNone:
		return "absolute"
	case m.Index != x86.RegNone:
		return "indexed"
	}
	return "base-relative"
}
