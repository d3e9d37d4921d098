package blocklint

import (
	"fmt"
	"math/bits"
	"slices"

	"bhive/internal/exec"
	"bhive/internal/profiler"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

// replay reads the predicted status off the profiler's functional pass,
// adding its diagnostics to rep and its observed addresses to rep.Facts.
// Execution-stage diagnostics carry no byte offset (Offset -1).
func (a *Analyzer) replay(s *scratch, rep *Report, insts []x86.Inst, pass *profiler.Pass) profiler.Status {
	n := len(insts)

	// BL013 fires at the first vector instruction execution reaches,
	// counting the one the pass stopped at.
	reached := len(pass.Steps)
	if pass.Err != nil {
		reached++
	}
	for i := 0; i < reached && i < n; i++ {
		if op := insts[i].Op; exec.IsVector(op) && op != x86.VZEROUPPER {
			rep.addDiag(Diag{Code: CodeUnmodeled, Inst: i, Offset: -1,
				Msg: fmt.Sprintf("%s: vector instruction; the verdict rests on the executor's vector semantics", insts[i].String())})
			break
		}
	}

	if pass.Err != nil {
		i := len(pass.Steps) % n
		rep.addDiag(Diag{Code: stopCode(pass.Stop), Inst: i, Offset: -1, Msg: a.stopMsg(&insts[i], pass)})
		return profiler.StatusCrashed
	}

	split := aggregate(s, pass.Steps, n, uint64(a.lineSize()))
	fold(s.aggs, rep.Facts)
	if split >= 0 && a.prof.Opts.FilterMisaligned {
		rep.addDiag(Diag{Code: CodeLineSplit, Inst: split, Offset: -1,
			Msg: "access crosses a cache-line boundary in the timed run"})
		return profiler.StatusMisaligned
	}
	return profiler.StatusOK
}

// stopCode maps the reason the functional pass stopped to its diagnostic.
func stopCode(s profiler.Stop) Code {
	switch s {
	case profiler.StopNoMapping:
		return CodeNoMapping
	case profiler.StopBadAddress, profiler.StopAlignment:
		return CodeBadAddress
	case profiler.StopPageBudget:
		return CodePageBudget
	case profiler.StopDivide:
		return CodeDivideError
	case profiler.StopPrepare:
		return CodeNoEncode
	}
	return CodeNoExec
}

func (a *Analyzer) stopMsg(in *x86.Inst, pass *profiler.Pass) string {
	var addr uint64
	if f, ok := pass.Err.(*vm.Fault); ok {
		addr = f.Addr
	}
	switch pass.Stop {
	case profiler.StopNoMapping:
		return fmt.Sprintf("access at %#x with page mapping disabled", addr)
	case profiler.StopBadAddress:
		return fmt.Sprintf("%#x is not a mappable user address", addr)
	case profiler.StopPageBudget:
		return fmt.Sprintf("%d pages already mapped (MaxFaults=%d)", pass.PagesMapped, a.prof.Opts.MaxFaults)
	case profiler.StopDivide:
		return fmt.Sprintf("%s raises #DE (zero divisor or quotient overflow)", in.String())
	case profiler.StopUnimplemented:
		return fmt.Sprintf("%s is not implemented by the functional executor", in.String())
	}
	return fmt.Sprintf("%s: %v", in.String(), pass.Err)
}

func (a *Analyzer) lineSize() int {
	if ls := a.prof.CPU.LineSize; ls > 0 {
		return ls
	}
	return 64
}

// memAgg accumulates one static instruction's accesses in the trace.
type memAgg struct {
	accesses  int
	last      uint64
	stride    int64
	strideSet bool
	strideOK  bool
	orAddrs   uint64
	splits    bool
	pages     []uint64
}

func (g *memAgg) add(acc *exec.MemAccess, lineSize uint64) (split bool) {
	addr, size := acc.Addr, uint64(acc.Size)
	g.accesses++
	split = addr%lineSize+size > lineSize
	g.splits = g.splits || split
	g.orAddrs |= addr
	for base := addr &^ (vm.PageSize - 1); ; base += vm.PageSize {
		if !containsPage(g.pages, base) {
			g.pages = append(g.pages, base)
		}
		if base >= (addr+size-1)&^(vm.PageSize-1) {
			break
		}
	}
	if g.accesses == 1 {
		g.last, g.strideOK = addr, true
		return split
	}
	d := int64(addr - g.last)
	if !g.strideSet {
		g.stride, g.strideSet = d, true
	} else if d != g.stride {
		g.strideOK = false
	}
	g.last = addr
	return split
}

func containsPage(pages []uint64, base uint64) bool {
	for _, p := range pages {
		if p == base {
			return true
		}
	}
	return false
}

// aggregate gathers the completed trace's memory accesses into s.aggs,
// one aggregate (with its page list) per static instruction, and returns
// the static index of the first instruction whose access crosses a cache
// line (-1 if none does).
func aggregate(s *scratch, steps []exec.Step, n int, lineSize uint64) int {
	s.aggs = slices.Grow(s.aggs[:0], n)[:n]
	aggs := s.aggs
	for i := range aggs {
		aggs[i] = memAgg{pages: aggs[i].pages[:0]}
	}
	split := -1
	for i := range steps {
		idx := i % n
		for _, acc := range [2]*exec.MemAccess{steps[i].Load, steps[i].Store} {
			if acc != nil && aggs[idx].add(acc, lineSize) && split < 0 {
				split = idx
			}
		}
	}
	return split
}

// fold sets the observed fields of f.Mem from the aggregates of the
// trace.
func fold(aggs []memAgg, f *Facts) {
	for i := range f.Mem {
		mf := &f.Mem[i]
		g := &aggs[mf.Inst]
		if g.accesses == 0 {
			continue
		}
		mf.Observed = true
		mf.Accesses = g.accesses
		mf.Align = 1 << 12
		if g.orAddrs != 0 {
			mf.Align = min(uint64(1)<<bits.TrailingZeros64(g.orAddrs), 1<<12)
		}
		if g.strideSet && g.strideOK {
			mf.Stride, mf.StrideKnown = g.stride, true
		}
		mf.Pages = len(g.pages)
		mf.Splits = g.splits
	}
}
