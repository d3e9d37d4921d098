package models

import (
	"hash/fnv"

	"bhive/internal/memo"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// tableOpts configures how a simulator-backed model's instruction tables
// deviate from the silicon ground truth.
type tableOpts struct {
	salt            string
	perturbProb     float64 // fraction of scalar table entries that drifted
	perturbStrength float64
	vecProb         float64 // vector entries are less well documented
	vecStrength     float64

	divBug     bool // model the 32-bit divide as the 64-bit one
	div64      int  // the CPU's 64-bit divide latency (divReference)
	zeroIdioms bool // model knows dependency-breaking idioms
	moveElim   bool // model knows move elimination
	fuseLoads  bool // a load+op is one scheduling unit (cannot hoist loads)
	loadLat    int

	// vecPortDrop is the probability that a vector µop's port table entry
	// is wrong and binds it to a single port. Port-pressure mistakes — not
	// latency — are what make throughput-bound vectorized kernels hard
	// for every model (>30% error in the paper's per-cluster figures).
	vecPortDrop float64
	// vecSlowProb is the probability the table half-pumps a vector µop
	// (issue every other cycle) — the classic ymm-as-2x-xmm mistake.
	vecSlowProb float64
}

func isVecClass(c uarch.UopClass) bool {
	switch c {
	case uarch.ClassVecALU, uarch.ClassVecLogic, uarch.ClassVecMul,
		uarch.ClassVecShift, uarch.ClassFPAdd, uarch.ClassFPMul,
		uarch.ClassFMA, uarch.ClassFPDiv, uarch.ClassShuffle:
		return true
	}
	return false
}

// desc returns the description of a prepared instruction the model's
// tables use: with or without the rename-time zero-idiom and
// move-elimination tricks it knows.
func (o *tableOpts) desc(p *memo.PreparedInst) (*uarch.Desc, error) {
	if o.zeroIdioms && o.moveElim {
		return &p.Desc, p.DescErr
	}
	if p.RawDescErr == nil && o.zeroIdioms && p.DescErr == nil && p.Desc.ZeroIdiom {
		return &p.Desc, nil
	}
	return &p.RawDesc, p.RawDescErr
}

// simInsts fills s's instruction and µop arenas with the model's view of
// b, whose memo entries on the model's µarch are entries, and returns the
// instructions; they stay valid until s's next use. Display text is built
// only when withText is set (schedule traces and reports). It fails with
// the first entry, in block order, whose description in the model's
// tables failed.
func (s *Scratch) simInsts(b *x86.Block, entries []*memo.PreparedInst, o *tableOpts, withText bool) ([]simInst, error) {
	// The first pass applies the error rule and sizes the µop arena
	// exactly, so the per-instruction windows below never move.
	nuops := 0
	for _, p := range entries {
		d, err := o.desc(p)
		if err != nil {
			return nil, err
		}
		nuops += len(d.Uops)
	}
	if len(entries) == 0 {
		return nil, errEmptyBlock
	}
	out := s.insts[:0]
	// Every instruction's µops share one backing array; each simInst keeps
	// a capped window of it.
	s.uops = reserve(s.uops[:0], nuops)
	uops := s.uops
	for i, p := range entries {
		in := &b.Insts[i]
		d, _ := o.desc(p)
		si := simInst{
			fused:     d.FusedUops,
			zeroIdiom: d.ZeroIdiom,
			elimMove:  d.EliminatedMove,
		}
		if withText {
			si.text = in.String()
		}
		si.addr, si.data, si.writes = p.Addr, p.Data, p.Writes

		lo := len(uops)
		for _, u := range d.Uops {
			su := simUop{
				ports: u.Ports,
				lat:   int(u.Lat),
				occ:   int(u.Occupancy),
				class: u.Class,
			}
			switch u.Class {
			case uarch.ClassLoad:
				su.isLoad = true
				if o.loadLat > 0 {
					su.lat = o.loadLat
				}
			case uarch.ClassStoreAddr, uarch.ClassStoreData:
				// store timing is rarely the modelling problem
			case uarch.ClassIntDiv:
				if o.divBug && argSizeBelow64(in) {
					// The model's table only has the 64-bit entry.
					su.lat, su.occ = o.div64, o.div64
				}
				su.lat = int(perturb(uint8(su.lat), in.Op, o.salt, o.perturbProb/2, o.perturbStrength/2))
				if su.occ > su.lat {
					su.occ = su.lat
				}
			default:
				prob, strength := o.perturbProb, o.perturbStrength
				if isVecClass(u.Class) {
					prob, strength = o.vecProb, o.vecStrength
					if portDropped(in.Op, o.salt, o.vecPortDrop) {
						su.ports = lowestPort(su.ports)
					}
					if portDropped(in.Op, o.salt+"/occ", o.vecSlowProb) && su.occ < 2 {
						su.occ = 2
					}
				}
				su.lat = int(perturb(uint8(su.lat), in.Op, o.salt, prob, strength))
			}
			uops = append(uops, su)
		}

		if o.fuseLoads {
			uops = uops[:lo+len(fuseLoadUops(uops[lo:]))]
		}
		si.uops = uops[lo:len(uops):len(uops)]
		out = append(out, si)
	}
	s.insts = out
	return out, nil
}

// buildSimInsts is simInsts on a fresh scratch, for the callers that keep
// the view (reports and schedule traces).
func buildSimInsts(cpu *uarch.CPU, b *x86.Block, o tableOpts, withText bool) ([]simInst, error) {
	return new(Scratch).simInsts(b, memo.For(cpu).Resolve(nil, b), &o, withText)
}

// fuseLoadUops merges a load µop into the first computation µop: the fused
// unit inherits the sum of latencies and, because it is no longer a load,
// waits for every input register — the scheduling mistake the paper's last
// case study exposes in llvm-mca. It rewrites uops in place.
func fuseLoadUops(uops []simUop) []simUop {
	loadIdx := -1
	for i, u := range uops {
		if u.isLoad {
			loadIdx = i
			break
		}
	}
	if loadIdx < 0 {
		return uops
	}
	computeIdx := -1
	for i, u := range uops {
		if !u.isLoad && u.class != uarch.ClassStoreAddr && u.class != uarch.ClassStoreData {
			computeIdx = i
			break
		}
	}
	if computeIdx < 0 {
		return uops // pure load: nothing to fuse with
	}
	uops[computeIdx].lat += uops[loadIdx].lat
	uops[computeIdx].fusedLoad = true
	return append(uops[:loadIdx], uops[loadIdx+1:]...)
}

// divReference returns the 64-bit divide latency in the CPU's tables. The
// models resolve it once, at construction.
func divReference(cpu *uarch.CPU) int {
	in := x86.NewInst(x86.DIV, x86.RegOp(x86.RCX))
	d, err := cpu.Describe(&in)
	if err != nil || len(d.Uops) == 0 {
		return 90
	}
	return int(d.Uops[0].Lat)
}

// portDropped decides deterministically whether a model's table binds the
// op to a single port.
func portDropped(op x86.Op, salt string, prob float64) bool {
	if prob <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(salt))
	h.Write([]byte{0x7E, byte(op), byte(op >> 8)})
	return float64(h.Sum64()%1000)/1000 < prob
}

// lowestPort reduces a port set to its lowest member.
func lowestPort(p uarch.PortSet) uarch.PortSet {
	for i := 0; i < 16; i++ {
		if p.Has(i) {
			return uarch.Ports(i)
		}
	}
	return p
}

func argSizeBelow64(in *x86.Inst) bool {
	if len(in.Args) == 0 {
		return false
	}
	a := in.Args[0]
	switch a.Kind {
	case x86.KindReg:
		return a.Reg.Size() < 8
	case x86.KindMem:
		return int(a.Mem.Size) < 8
	}
	return false
}

// simModel is the shared core of the simulator-backed models: an
// instruction-table view of the block scheduled by the model simulator.
type simModel struct {
	cpu  *uarch.CPU
	opts tableOpts
}

// Predict implements Predictor.
func (m *simModel) Predict(b *x86.Block) (float64, error) {
	return predictPooled(m.cpu, b, m.PredictResolved)
}

// PredictResolved implements ResolvedPredictor.
func (m *simModel) PredictResolved(b *x86.Block, entries []*memo.PreparedInst, s *Scratch) (float64, error) {
	insts, err := s.simInsts(b, entries, &m.opts, false)
	if err != nil {
		return 0, err
	}
	return s.sim.derivedPrediction(insts, m.cpu.IssueWidth, m.cpu.NumPorts, len(entries))
}

// Schedule implements ScheduleTracer.
func (m *simModel) Schedule(b *x86.Block, iterations int) ([]ScheduleEntry, error) {
	insts, err := buildSimInsts(m.cpu, b, m.opts, true)
	if err != nil {
		return nil, err
	}
	return schedule(insts, m.cpu.IssueWidth, m.cpu.NumPorts, iterations)
}

// IACA is the vendor-built analyzer: a port-binding simulator that knows
// the proprietary fast paths (zero idioms, move elimination, micro-fusion)
// and dispatches loads as soon as their addresses are ready. Its documented
// weakness is the divider table: a 32-bit divide is costed like the 64-bit
// form (the paper's first case study, where IACA predicts 98 cycles against
// a measured 21.62).
type IACA struct{ simModel }

// NewIACA builds the IACA-like model for a CPU.
func NewIACA(cpu *uarch.CPU) *IACA {
	return &IACA{simModel{
		cpu: cpu,
		opts: tableOpts{
			salt:            "iaca/" + cpu.Name,
			perturbProb:     0.12,
			perturbStrength: 0.25,
			vecProb:         0.90,
			vecStrength:     0.60,
			divBug:          true,
			div64:           divReference(cpu),
			zeroIdioms:      true,
			moveElim:        true,
			fuseLoads:       false,
			vecPortDrop:     0.45,
			vecSlowProb:     0.55,
		},
	}}
}

// Name implements Predictor.
func (m *IACA) Name() string { return "IACA" }
