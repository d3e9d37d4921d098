// Package portmap reimplements the measurement-based methodology of Abel
// and Reineke that the paper's classification relies on: it rediscovers an
// instruction's execution-port combination by running automatically
// generated saturating micro-benchmarks on the simulated machine and
// reading the per-port micro-op performance counters.
//
// Like llvm-exegesis (which the paper also discusses), the generator is
// limited to instructions whose micro-benchmark can be built from
// register-only independent streams; the inferred mapping is validated
// against the parameter tables in internal/uarch.
package portmap

import (
	"fmt"

	"bhive/internal/exec"
	"bhive/internal/machine"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// scratch destination registers used to build independent streams.
var gpDst = []x86.Reg{x86.RAX, x86.RCX, x86.RDX, x86.R8, x86.R9, x86.R10, x86.R11, x86.R15}
var vecDst = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}

// Microbenchmark builds a saturating instruction stream for the given
// instruction template: n copies with rotated destination registers so the
// streams are independent and spill across every allowed port.
func Microbenchmark(template x86.Inst, n int) ([]x86.Inst, error) {
	if len(template.Args) == 0 || template.Args[0].Kind != x86.KindReg {
		return nil, fmt.Errorf("portmap: template needs a register destination")
	}
	out := make([]x86.Inst, 0, n)
	for i := 0; i < n; i++ {
		in := template
		in.Args = append([]x86.Operand(nil), template.Args...)
		dst := template.Args[0].Reg
		switch {
		case dst.IsGP():
			in.Args[0] = x86.RegOp(x86.GPReg(gpDst[i%len(gpDst)].Num(), dst.Size()))
		case dst.IsVec():
			in.Args[0] = x86.RegOp(x86.VecReg(vecDst[i%len(vecDst)], dst.Size()))
		default:
			return nil, fmt.Errorf("portmap: unsupported destination %v", dst)
		}
		// Keep sources out of the destination pool: a source that aliases
		// a rotated destination would serialize every stream through that
		// one chain.
		for k := 1; k < len(in.Args); k++ {
			if in.Args[k].Kind != x86.KindReg {
				continue
			}
			r := in.Args[k].Reg
			switch {
			case r.IsVec() && r.Num() <= 11:
				in.Args[k] = x86.RegOp(x86.VecReg(13, r.Size()))
			case r.IsGP():
				for _, d := range gpDst {
					if r.Base64() == d {
						in.Args[k] = x86.RegOp(x86.GPReg(x86.RBX.Num(), r.Size()))
						break
					}
				}
			}
		}
		if _, err := x86.Encode(in); err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// Result is one inferred mapping.
type Result struct {
	Ports   uarch.PortSet
	UopsPer float64 // micro-ops per instruction
	PerPort [16]uint64
}

// Infer measures the port combination of a register-only instruction on
// the given microarchitecture.
func Infer(cpu *uarch.CPU, template x86.Inst) (Result, error) {
	const streams = 16
	const unroll = 24

	bench, err := Microbenchmark(template, streams)
	if err != nil {
		return Result{}, err
	}
	var insts []x86.Inst
	for i := 0; i < unroll; i++ {
		insts = append(insts, bench...)
	}

	m := machine.New(cpu, 99)
	prog, err := m.Prepare(insts)
	if err != nil {
		return Result{}, err
	}
	st := &exec.State{FTZ: true, DAZ: true}
	st.InitRegisters(0x12345600)
	steps, err := m.Execute(prog, st)
	if err != nil {
		return Result{}, err
	}
	g := m.PrepareGraph(prog, steps)
	m.TimeGraph(g, machine.Config{}) // warm-up
	ctr := m.TimeGraph(g, machine.Config{})

	var total uint64
	for _, c := range ctr.PortUops {
		total += c
	}
	if total == 0 {
		return Result{}, fmt.Errorf("portmap: no micro-ops issued")
	}
	var ports uarch.PortSet
	threshold := total / 50 // 2% of issued µops
	if threshold == 0 {
		threshold = 1
	}
	for p, c := range ctr.PortUops {
		if c > threshold {
			ports |= uarch.Ports(p)
		}
	}
	return Result{
		Ports:   ports,
		UopsPer: float64(ctr.Uops) / float64(len(insts)),
		PerPort: ctr.PortUops,
	}, nil
}
