package portmap

import (
	"fmt"
	"sort"

	"bhive/internal/exec"
	"bhive/internal/machine"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// This file is the llvm-exegesis side of the tooling the paper surveys:
// automatic generation of micro-benchmarks that measure one instruction's
// latency (a serial dependency chain) and reciprocal throughput
// (independent parallel streams). Like the real tool, it is limited to
// register-only instruction forms.

// LatencyChain builds a serial chain of n copies of the template where
// each copy consumes the previous copy's result. Zero-idiom shapes
// (xor a,a) are avoided by alternating two registers.
func LatencyChain(template x86.Inst, n int) ([]x86.Inst, error) {
	if len(template.Args) == 0 || template.Args[0].Kind != x86.KindReg {
		return nil, fmt.Errorf("portmap: template needs a register destination")
	}
	dst := template.Args[0].Reg
	read, _ := template.ArgIO(0)

	sameClass := func(num int, like x86.Reg) x86.Reg {
		if like.IsVec() {
			return x86.VecReg(num, like.Size())
		}
		return x86.GPReg(num, like.Size())
	}

	out := make([]x86.Inst, 0, n)
	if read {
		// Read-modify-write destination: the chain runs through the
		// destination register itself. Keep sources distinct from the
		// destination so the chain is never a zero idiom.
		for i := 0; i < n; i++ {
			in := template
			in.Args = append([]x86.Operand(nil), template.Args...)
			for k := 1; k < len(in.Args); k++ {
				if in.Args[k].Kind == x86.KindReg && in.Args[k].Reg == dst {
					in.Args[k] = x86.RegOp(sameClass(dst.Num()+1, in.Args[k].Reg))
				}
			}
			if _, err := x86.Encode(in); err != nil {
				return nil, err
			}
			out = append(out, in)
		}
		return out, nil
	}

	// Write-only destination: alternate two registers and wire the last
	// register source to the previous destination.
	regA, regB := sameClass(0, dst), sameClass(1, dst)
	for i := 0; i < n; i++ {
		in := template
		in.Args = append([]x86.Operand(nil), template.Args...)
		d, s := regA, regB
		if i%2 == 1 {
			d, s = regB, regA
		}
		in.Args[0] = x86.RegOp(d)
		wired := false
		for k := len(in.Args) - 1; k >= 1; k-- {
			if in.Args[k].Kind == x86.KindReg {
				in.Args[k] = x86.RegOp(sameClass(s.Num(), in.Args[k].Reg))
				wired = true
				break
			}
			if in.Args[k].Kind == x86.KindMem && in.Args[k].Mem.Base.IsGP() {
				// Address-generation chains (LEA) run through the base.
				m := in.Args[k].Mem
				m.Base = x86.GPReg(s.Num(), 8)
				in.Args[k] = x86.MemOp(m)
				wired = true
				break
			}
		}
		if !wired {
			return nil, fmt.Errorf("portmap: %s has no register source to chain through", template.String())
		}
		if _, err := x86.Encode(in); err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// runCycles measures the steady-state cycles of an instruction sequence by
// the derived two-unroll method on a fresh machine.
func runCycles(cpu *uarch.CPU, insts []x86.Inst, unroll int) (float64, error) {
	measure := func(u int) (uint64, error) {
		m := machine.New(cpu, 3)
		var seq []x86.Inst
		for i := 0; i < u; i++ {
			seq = append(seq, insts...)
		}
		prog, err := m.Prepare(seq)
		if err != nil {
			return 0, err
		}
		st := &exec.State{FTZ: true, DAZ: true}
		st.InitRegisters(0x12345600)
		steps, err := m.Execute(prog, st)
		if err != nil {
			return 0, err
		}
		g := m.PrepareGraph(prog, steps)
		m.TimeGraph(g, machine.Config{}) // warm-up
		return m.TimeGraph(g, machine.Config{}).Cycles, nil
	}
	c1, err := measure(unroll)
	if err != nil {
		return 0, err
	}
	c2, err := measure(2 * unroll)
	if err != nil {
		return 0, err
	}
	return float64(c2-c1) / float64(unroll), nil
}

// MeasureLatency measures the template's dependency-chain latency in
// cycles.
func MeasureLatency(cpu *uarch.CPU, template x86.Inst) (float64, error) {
	chain, err := LatencyChain(template, 8)
	if err != nil {
		return 0, err
	}
	perIter, err := runCycles(cpu, chain, 8)
	if err != nil {
		return 0, err
	}
	return perIter / float64(len(chain)), nil
}

// MeasureThroughput measures the template's reciprocal throughput
// (cycles per instruction with unbounded parallelism).
func MeasureThroughput(cpu *uarch.CPU, template x86.Inst) (float64, error) {
	bench, err := Microbenchmark(template, 12)
	if err != nil {
		return 0, err
	}
	perIter, err := runCycles(cpu, bench, 8)
	if err != nil {
		return 0, err
	}
	return perIter / float64(len(bench)), nil
}

// TableEntry is one measured row of an instruction table.
type TableEntry struct {
	Inst        string
	Latency     float64
	RThroughput float64
	Ports       uarch.PortSet
	UopsPer     float64
}

// BuildTable measures latency, throughput and port usage for each template
// and returns the rows sorted by mnemonic — the per-instruction tables
// (Agner Fog / uops.info style) the paper's background discusses.
func BuildTable(cpu *uarch.CPU, templates []x86.Inst) ([]TableEntry, error) {
	var out []TableEntry
	for _, tmpl := range templates {
		lat, err := MeasureLatency(cpu, tmpl)
		if err != nil {
			return nil, fmt.Errorf("%s: latency: %w", tmpl.String(), err)
		}
		tp, err := MeasureThroughput(cpu, tmpl)
		if err != nil {
			return nil, fmt.Errorf("%s: throughput: %w", tmpl.String(), err)
		}
		pm, err := Infer(cpu, tmpl)
		if err != nil {
			return nil, fmt.Errorf("%s: ports: %w", tmpl.String(), err)
		}
		out = append(out, TableEntry{
			Inst:        tmpl.String(),
			Latency:     lat,
			RThroughput: tp,
			Ports:       pm.Ports,
			UopsPer:     pm.UopsPer,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Inst < out[j].Inst })
	return out, nil
}

// AllTemplates derives one register-only template per opcode from the
// encoding table (the first form whose operands can all be registers or
// immediates), skipping branches and stack ops. This is how the tool
// covers the whole ISA without a hand-written list.
func AllTemplates() []x86.Inst {
	var out []x86.Inst
	seen := make(map[x86.Op]bool)
	for i := range x86.Forms {
		f := &x86.Forms[i]
		if seen[f.Op] || f.Op.IsBranch() {
			continue
		}
		switch f.Op {
		case x86.PUSH, x86.POP, x86.NOP, x86.VZEROUPPER:
			continue
		case x86.DIV, x86.IDIV, x86.MUL, x86.CDQ, x86.CQO:
			// Widening multiply/divide needs implicit RDX:RAX setup that a
			// generic harness cannot provide without faulting (#DE);
			// llvm-exegesis special-cases these too.
			continue
		}
		in := templateFromForm(f)
		if in == nil {
			continue
		}
		if _, err := x86.Encode(*in); err != nil {
			continue
		}
		seen[f.Op] = true
		out = append(out, *in)
	}
	return out
}

// templateFromForm materializes register/immediate operands for a form,
// returning nil when the form requires memory.
func templateFromForm(f *x86.Form) *x86.Inst {
	in := &x86.Inst{Op: f.Op}
	for _, p := range f.Args {
		switch p {
		case x86.PatR8, x86.PatRM8:
			in.Args = append(in.Args, x86.RegOp(x86.CL))
		case x86.PatR16, x86.PatRM16:
			in.Args = append(in.Args, x86.RegOp(x86.CX))
		case x86.PatR32, x86.PatRM32:
			in.Args = append(in.Args, x86.RegOp(x86.ECX))
		case x86.PatR64, x86.PatRM64:
			in.Args = append(in.Args, x86.RegOp(x86.RCX))
		case x86.PatXMM, x86.PatXM32, x86.PatXM64, x86.PatXM128:
			in.Args = append(in.Args, x86.RegOp(x86.X2))
		case x86.PatYMM, x86.PatYM256:
			in.Args = append(in.Args, x86.RegOp(x86.Y2))
		case x86.PatImm8, x86.PatImm16, x86.PatImm32, x86.PatImm64:
			in.Args = append(in.Args, x86.ImmOp(3))
		case x86.PatCL:
			in.Args = append(in.Args, x86.RegOp(x86.CL))
		default:
			return nil // memory-only or unsupported slot
		}
	}
	if len(in.Args) == 0 || in.Args[0].Kind != x86.KindReg {
		return nil
	}
	return in
}

// DefaultTemplates returns a representative register-only instruction set
// for table building.
func DefaultTemplates() []x86.Inst {
	texts := []string{
		"add rax, rbx",
		"adc rax, rbx",
		"imul rax, rbx",
		"shl rax, 3",
		"rol rax, 7",
		"popcnt rax, rbx",
		"lea rax, [rbx+8]",
		"bswap rax",
		"cmova rax, rbx",
		"addss xmm0, xmm1",
		"addpd xmm0, xmm1",
		"mulps xmm0, xmm1",
		"divsd xmm0, xmm1",
		"sqrtss xmm0, xmm1",
		"pshufd xmm0, xmm1, 0x1b",
		"paddd xmm0, xmm1",
		"pmulld xmm0, xmm1",
		"pslld xmm0, 4",
	}
	var out []x86.Inst
	for _, t := range texts {
		in, err := x86.ParseInst(t, x86.SyntaxIntel)
		if err != nil {
			panic("portmap: bad default template " + t)
		}
		out = append(out, in)
	}
	return out
}
