package pipeline

import (
	"math"

	"bhive/internal/cache"
	"bhive/internal/uarch"
)

// This file is the modeled decode front end (Config.ModeledFrontEnd): a
// uiCA-style replacement for the 16-bytes-per-cycle fetch approximation in
// simulateFetch. It fills the same fetchReady array — the cycle each
// instruction becomes available for allocation — so the back end of both
// schedulers is untouched, and it is shared by the reference and
// event-driven paths (one implementation over a small item source), which
// makes their equivalence in modeled mode hold by construction. The legacy
// fetch functions are deliberately left duplicated and untouched so the
// default mode stays bit-identical to the pre-front-end simulator.
//
// The model treats the item sequence as iterations of a basic block of
// Config.LoopBody instructions (the profiler's unrolled program) and picks
// a delivery path per iteration:
//
//   - Iteration 0 always decodes through the legacy pipeline (MITE):
//     the predecoder retires one 16-byte window per cycle and restarts on
//     length-changing prefixes; decode groups are DecodeWidth wide with
//     multi-µop instructions restricted to the leading (complex) decoder.
//   - If the body's fused µops fit the loop stream detector, iterations
//     ≥ 1 stream from the µop queue: no front-end constraint at all.
//   - Otherwise, if every 32-byte window of the body fits the DSB
//     capacity model, iterations ≥ 1 stream from the µop cache at
//     DSBWidth fused µops per cycle, after one MITE→DSB switch penalty.
//   - Otherwise every iteration pays the MITE path again.
//
// Instruction-cache misses are modeled exactly as in the legacy front end
// (counted, and each adding MissPenalty stall cycles), but only on
// MITE iterations — a DSB or LSD hit does not fetch from the L1I.

// feSource is the per-instruction view the front end reads: each
// instruction's physical code address and length, its fused-domain µop
// count, and whether it carries a length-changing prefix. The event-driven
// scheduler passes the graph's arrays directly; the reference scheduler
// fills its own from the items, so one implementation serves both.
type feSource struct {
	codePhys []uint64
	codeLen  []int32
	fused    []int32
	lcp      []bool
}

// frontEnd is the resolved parameter set, with defensive defaults for a
// CPU whose FrontEnd block was left zero, plus the buffers one modeled
// fetch works in. It lives in the pooled scheduler state, so a timed run
// with the modeled front end performs no heap allocation.
type frontEnd struct {
	decodeWidth   int
	lcpStall      uint64
	dsbWidth      int
	dsbSets       int
	dsbWays       int
	dsbLineUops   int
	lsdSize       int
	switchPenalty uint64

	offs    []int // body byte offsets, with an end sentinel
	winUops []int // fused µops per 32-byte window
	setWays []int // DSB ways taken per set
}

// load resolves cpu's front-end parameters into fe, keeping its buffers.
func (fe *frontEnd) load(cpu *uarch.CPU) {
	*fe = frontEnd{
		decodeWidth:   cpu.FE.DecodeWidth,
		lcpStall:      uint64(cpu.FE.LCPStall),
		dsbWidth:      cpu.FE.DSBWidth,
		dsbSets:       cpu.FE.DSBSets,
		dsbWays:       cpu.FE.DSBWays,
		dsbLineUops:   cpu.FE.DSBLineUops,
		lsdSize:       cpu.FE.LSDSize,
		switchPenalty: uint64(cpu.FE.SwitchPenalty),
		offs:          fe.offs,
		winUops:       fe.winUops,
		setWays:       fe.setWays,
	}
	if fe.decodeWidth <= 0 {
		fe.decodeWidth = 4
	}
	if fe.dsbWidth <= 0 {
		fe.dsbWidth = cpu.IssueWidth
	}
	if fe.dsbLineUops <= 0 {
		fe.dsbLineUops = 6
	}
	if fe.dsbSets <= 0 {
		fe.dsbSets = 32
	}
	if fe.dsbWays <= 0 {
		fe.dsbWays = 8
	}
}

// dsbWindowWays is the maximum number of µop-cache ways one 32-byte code
// window may occupy; a window needing more is MITE-only, which in this
// whole-block residency model demotes the whole body.
const dsbWindowWays = 3

// dsbResident reports whether a body whose instruction k starts at byte
// offset offs[k] (offs has a final end-offset sentinel) and decodes to
// fused[k] fused µops fits the DSB capacity model: per 32-byte window at
// most dsbWindowWays lines of dsbLineUops µops, and per cache set at most
// dsbWays lines across the windows that map to it.
func (fe *frontEnd) dsbResident(offs []int, fused []int32) bool {
	if len(fused) == 0 {
		return false
	}
	nWin := (offs[len(offs)-1]-1)/32 + 1
	winUops := grow(fe.winUops, nWin)
	clear(winUops)
	for k, f := range fused {
		winUops[offs[k]/32] += int(f)
	}
	setWays := grow(fe.setWays, fe.dsbSets)
	clear(setWays)
	fe.winUops, fe.setWays = winUops, setWays
	for w, u := range winUops {
		ways := (u + fe.dsbLineUops - 1) / fe.dsbLineUops
		if ways > dsbWindowWays {
			return false
		}
		set := w % fe.dsbSets
		if setWays[set] += ways; setWays[set] > fe.dsbWays {
			return false
		}
	}
	return true
}

// decoder assigns instructions to legacy decode groups: decodeWidth
// instructions per cycle, with multi-µop (complex) instructions only in
// the leading slot. assign returns the stall-free cycle the instruction
// decodes in, given the cycle its bytes leave the predecoder.
type decoder struct {
	fe    *frontEnd
	cycle uint64 // group currently being filled
	slots int
}

func (d *decoder) reset(start uint64) { d.cycle, d.slots = start, 0 }

func (d *decoder) assign(pre uint64, cplx bool) uint64 {
	if d.slots >= d.fe.decodeWidth || (cplx && d.slots > 0) {
		d.cycle++
		d.slots = 0
	}
	if pre > d.cycle {
		d.cycle = pre
		d.slots = 0
	}
	d.slots++
	return d.cycle
}

// modeledFetch fills ready (len n) with allocation-availability cycles
// under the modeled front end, working in fe's buffers. body is
// Config.LoopBody clamped to [1, n].
func modeledFetch(cpu *uarch.CPU, fe *frontEnd, src feSource, body int, l1i *cache.Cache, ctr *Counters, ready []uint64) {
	n := len(src.codePhys)
	if n == 0 {
		return
	}
	if body <= 0 || body > n {
		body = n
	}
	fe.load(cpu)

	// Static body metadata, from iteration 0's instructions. Offsets are
	// cumulative code bytes from the body start — the layout every
	// iteration repeats.
	offs := grow(fe.offs, body+1)
	fe.offs = offs
	fused, lcp := src.fused[:body], src.lcp[:body]
	offs[0] = 0
	bodyFused := 0
	for k := 0; k < body; k++ {
		offs[k+1] = offs[k] + int(src.codeLen[k])
		bodyFused += int(fused[k])
	}
	lsd := fe.lsdSize > 0 && bodyFused <= fe.lsdSize
	resident := fe.dsbResident(offs, fused)

	var (
		stalls   uint64 // accumulated I-cache miss penalty cycles
		lastLine = uint64(math.MaxUint64)
		lastSF   uint64 // stall-free delivery cycle of the previous inst
		lock     uint64 // LSD lock-down cycle (set after iteration 0)
		dec      = decoder{fe: fe}
		shift    = lineShift(l1i)
	)

	i := 0
	for iter := 0; i < n; iter++ {
		end := min(i+body, n)
		if iter >= 1 && lsd {
			// LSD lock-down: the body streams from the µop queue; the
			// only remaining limit is allocation width, which the back
			// end applies itself.
			for ; i < end; i++ {
				ready[i] = lock
			}
			continue
		}
		iterStart := lastSF
		mite := iter == 0 || !resident
		if iter == 1 && resident {
			iterStart += fe.switchPenalty // MITE→DSB delivery switch
		}
		if mite {
			dec.reset(iterStart)
			var lcpCum uint64
			for k := 0; i < end; i, k = i+1, k+1 {
				phys, clen, f := src.codePhys[i], int(src.codeLen[i]), src.fused[i]
				// The MITE path fetches from the L1I, exactly as the
				// legacy front end models it (by the L1I's line shift).
				first := phys >> shift
				last := (phys + uint64(clen) - 1) >> shift
				for line := first; line <= last; line++ {
					if line == lastLine {
						continue
					}
					lastLine = line
					if !l1i.Access(line << shift) {
						ctr.L1IMisses++
						stalls += uint64(cpu.MissPenalty)
					}
				}
				if lcp[k] {
					lcpCum += fe.lcpStall
				}
				// Predecode: one 16-byte window per cycle; the
				// instruction is available once the window holding its
				// last byte retires, delayed by LCP restarts so far.
				pre := iterStart + uint64((offs[k]+clen-1)/16) + lcpCum
				d := dec.assign(pre, f > 1)
				if d < lastSF {
					d = lastSF
				}
				lastSF = d
				ready[i] = d + stalls
			}
		} else {
			// DSB hit: deliver the body's fused µops at dsbWidth per
			// cycle, no L1I fetch.
			cum := 0
			for k := 0; i < end; i, k = i+1, k+1 {
				cum += int(fused[k])
				d := iterStart
				if cum > 0 {
					d += uint64((cum - 1) / fe.dsbWidth)
				}
				if d < lastSF {
					d = lastSF
				}
				lastSF = d
				ready[i] = d + stalls
			}
		}
		if iter == 0 {
			lock = lastSF + stalls
		}
	}
}
