package blocklint

import "bhive/internal/x86"

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

// resName names a dependence-tracking resource.
func resName(r x86.Reg) string { return r.Base64().String() }

const flagsRes = "flags"

// reads returns the resources an instruction consumes, writes the ones it
// defines, using the decoder's register-level IO tables plus the flags
// pseudo-resource.
func reads(in *x86.Inst) []string {
	var out []string
	for _, r := range in.RegReads() {
		out = append(out, resName(r))
	}
	if in.Op.ReadsFlags() {
		out = append(out, flagsRes)
	}
	return out
}

func writes(in *x86.Inst) []string {
	var out []string
	for _, r := range in.RegWrites() {
		out = append(out, resName(r))
	}
	if in.Op.WritesFlags() {
		out = append(out, flagsRes)
	}
	return out
}

// computeFacts derives the static facts for one block. offsets is indexed
// like insts; codeBytes is the hi-unrolled footprint. The dependence
// heights and the observed memory fields are filled in later, from the
// bound analysis and the functional pass.
func computeFacts(insts []x86.Inst, offsets []int, lo, hi, codeBytes int) *Facts {
	n := len(insts)
	f := &Facts{
		NumInsts:  n,
		UnrollLo:  lo,
		UnrollHi:  hi,
		CodeBytes: codeBytes,
	}

	rds := make([][]string, n)
	wrs := make([][]string, n)
	for i := range insts {
		rds[i] = reads(&insts[i])
		wrs[i] = writes(&insts[i])
	}

	// Def-use edges within one iteration and carried into the next.
	// lastDef maps resource -> defining instruction of the current
	// iteration; resources still undefined at a read come from the
	// previous iteration's writer (a carried edge) if the block writes
	// them at all.
	finalDef := map[string]int{}
	for i := n - 1; i >= 0; i-- {
		for _, w := range wrs[i] {
			if _, ok := finalDef[w]; !ok {
				finalDef[w] = i
			}
		}
	}
	lastDef := map[string]int{}
	seenEdge := map[DepEdge]bool{}
	for i := 0; i < n; i++ {
		for _, r := range rds[i] {
			var e DepEdge
			if def, ok := lastDef[r]; ok {
				e = DepEdge{From: def, To: i, Resource: r}
			} else if def, ok := finalDef[r]; ok {
				e = DepEdge{From: def, To: i, Resource: r, Carried: true}
				if !containsStr(f.LoopCarried, r) {
					f.LoopCarried = append(f.LoopCarried, r)
				}
			} else {
				continue // read of pristine initial state
			}
			if !seenEdge[e] {
				seenEdge[e] = true
				f.DefUse = append(f.DefUse, e)
			}
		}
		for _, w := range wrs[i] {
			lastDef[w] = i
		}
	}

	// Static memory-operand classification (observed fields come later).
	for i := range insts {
		in := &insts[i]
		k := in.MemArg()
		if k < 0 || in.Op == x86.LEA {
			continue
		}
		rd, wr := in.ArgIO(k)
		m := in.Args[k].Mem
		mf := MemFact{
			Inst:      i,
			Offset:    offsets[i],
			Class:     classifyAddr(m),
			Loads:     rd,
			Stores:    wr,
			Size:      int(m.Size),
			Disp:      m.Disp,
			DispMod64: int(((int64(m.Disp) % 64) + 64) % 64),
		}
		f.Mem = append(f.Mem, mf)
	}
	return f
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

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
