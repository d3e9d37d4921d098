package pipeline

import (
	"testing"

	"bhive/internal/cache"
	"bhive/internal/uarch"
)

// feTestItems builds a synthetic item slice for driving modeledFetch
// directly: each spec is (code length, fused µops, has-LCP), laid out
// contiguously from physical address 0.
func feTestItems(specs ...[3]int) []Item {
	items := make([]Item, len(specs))
	phys := uint64(0)
	for i, s := range specs {
		items[i].CodePhys = phys
		items[i].CodeLen = s[0]
		items[i].Desc.FusedUops = s[1]
		items[i].LCP = s[2] != 0
		phys += uint64(s[0])
	}
	return items
}

// repeatItems unrolls a body u times, advancing the physical addresses the
// way machine.PrepareUnrolled lays out an unrolled program.
func repeatItems(body []Item, u int) []Item {
	var out []Item
	phys := uint64(0)
	for it := 0; it < u; it++ {
		for _, b := range body {
			b.CodePhys = phys
			phys += uint64(b.CodeLen)
			out = append(out, b)
		}
	}
	return out
}

func runModeledFetch(cpu *uarch.CPU, items []Item, body int) ([]uint64, Counters) {
	var ctr Counters
	ready := make([]uint64, len(items))
	l1i := cache.New(cpu.L1ISize, cpu.L1Assoc, cpu.LineSize)
	var s simScratch
	modeledFetch(cpu, &s.fe, s.feSource(items), body, l1i, &ctr, ready)
	return ready, ctr
}

// TestDecoderAssign pins the legacy-decode group rules: decodeWidth
// instructions per cycle, complex (multi-µop) instructions only in the
// leading slot, and a predecode lag restarting the group.
func TestDecoderAssign(t *testing.T) {
	fe := frontEnd{decodeWidth: 4}
	d := decoder{fe: &fe}

	// Four simple instructions share cycle 0; the fifth spills to cycle 1.
	d.reset(0)
	for i, want := range []uint64{0, 0, 0, 0, 1} {
		if got := d.assign(0, false); got != want {
			t.Fatalf("simple inst %d decodes at %d, want %d", i, got, want)
		}
	}

	// A complex instruction must lead its group: simple, complex, simple
	// splits into cycle 0 / cycle 1 / cycle 1.
	d.reset(0)
	if got := d.assign(0, false); got != 0 {
		t.Fatalf("leading simple at %d, want 0", got)
	}
	if got := d.assign(0, true); got != 1 {
		t.Fatalf("complex after simple at %d, want 1", got)
	}
	if got := d.assign(0, false); got != 1 {
		t.Fatalf("simple after complex at %d, want 1", got)
	}
	// A complex instruction already at the head of a group does not stall.
	d.reset(5)
	if got := d.assign(5, true); got != 5 {
		t.Fatalf("leading complex at %d, want 5", got)
	}

	// Predecode lag: an instruction whose bytes arrive later restarts the
	// group at the arrival cycle with all slots free.
	d.reset(0)
	d.assign(0, false)
	if got := d.assign(3, false); got != 3 {
		t.Fatalf("lagged inst decodes at %d, want 3", got)
	}
	if got := d.assign(3, false); got != 3 {
		t.Fatalf("inst after lag decodes at %d, want 3 (fresh group)", got)
	}
}

// TestDSBResident pins the µop-cache capacity model: per-32-byte-window
// way limits and per-set way limits.
func TestDSBResident(t *testing.T) {
	fe := frontEnd{dsbSets: 32, dsbWays: 8, dsbLineUops: 6}

	// 4 instructions × 4 bytes × 1 µop in one window: 1 way — resident.
	if !fe.dsbResident([]int{0, 4, 8, 12, 16}, []int32{1, 1, 1, 1}) {
		t.Error("small body should be DSB-resident")
	}

	// One 32-byte window holding 19 µops needs ceil(19/6) = 4 > 3 ways:
	// the window is MITE-only, so the body is not resident.
	if fe.dsbResident([]int{0, 8, 16, 24, 32}, []int32{5, 5, 5, 4}) {
		t.Error("19 µops in one window should overflow the 3-way window limit")
	}
	// 18 µops is exactly 3 ways — still resident.
	if !fe.dsbResident([]int{0, 8, 16, 24, 32}, []int32{5, 5, 5, 3}) {
		t.Error("18 µops in one window should fit exactly 3 ways")
	}

	// Set-conflict overflow: windows 32 apart in units of 32 bytes map to
	// the same set with dsbSets=1; 3 windows × 3 ways = 9 > 8 ways.
	one := frontEnd{dsbSets: 1, dsbWays: 8, dsbLineUops: 6}
	offs := []int{0, 32, 64, 96}
	if one.dsbResident(offs, []int32{18, 18, 18}) {
		t.Error("9 ways into one set should overflow dsbWays=8")
	}
	if !one.dsbResident(offs, []int32{18, 18, 12}) {
		t.Error("8 ways into one set should fit dsbWays=8")
	}

	// The empty body is never resident.
	if fe.dsbResident([]int{0}, nil) {
		t.Error("empty body should not be DSB-resident")
	}
}

// TestPredecodeWindows: iteration 0 retires one 16-byte predecode window
// per cycle — an instruction is not decodable before the window holding
// its last byte.
func TestPredecodeWindows(t *testing.T) {
	cpu := uarch.Skylake()
	// Eight 8-byte single-µop instructions: bytes 0..63, so windows 0..3.
	items := feTestItems(
		[3]int{8, 1, 0}, [3]int{8, 1, 0}, [3]int{8, 1, 0}, [3]int{8, 1, 0},
		[3]int{8, 1, 0}, [3]int{8, 1, 0}, [3]int{8, 1, 0}, [3]int{8, 1, 0},
	)
	ready, _ := runModeledFetch(cpu, items, len(items))
	// Instruction k spans bytes [8k, 8k+8): its last byte sits in window
	// (8k+7)/16, which lower-bounds its decode cycle; the 4-wide decode
	// group never binds here because the window cap admits only 2/cycle.
	// All 64 body bytes share one I-cache line, whose cold miss stalls
	// every instruction by MissPenalty.
	for k := range items {
		want := uint64((8*k+7)/16) + uint64(cpu.MissPenalty)
		if ready[k] != want {
			t.Errorf("inst %d ready at %d, want %d (predecode window)", k, ready[k], want)
		}
	}
}

// TestLCPStall: a length-changing prefix restarts the predecoder, pushing
// the carrying instruction and everything after it by LCPStall cycles,
// cumulatively per LCP.
func TestLCPStall(t *testing.T) {
	cpu := uarch.Skylake()
	plain := feTestItems([3]int{4, 1, 0}, [3]int{4, 1, 0}, [3]int{4, 1, 0})
	pref := feTestItems([3]int{4, 1, 0}, [3]int{4, 1, 1}, [3]int{4, 1, 0})
	base, _ := runModeledFetch(cpu, plain, 3)
	got, _ := runModeledFetch(cpu, pref, 3)
	stall := uint64(cpu.FE.LCPStall)
	if got[0] != base[0] {
		t.Errorf("inst before the LCP moved: %d -> %d", base[0], got[0])
	}
	for k := 1; k < 3; k++ {
		if got[k] != base[k]+stall {
			t.Errorf("inst %d ready at %d, want %d+%d", k, got[k], base[k], stall)
		}
	}

	// Two LCPs accumulate.
	two := feTestItems([3]int{4, 1, 1}, [3]int{4, 1, 1}, [3]int{4, 1, 0})
	got2, _ := runModeledFetch(cpu, two, 3)
	if got2[2] != base[2]+2*stall {
		t.Errorf("after two LCPs inst 2 ready at %d, want %d", got2[2], base[2]+2*stall)
	}
}

// TestLSDLockdown: a body whose fused µops fit the LSD streams iterations
// ≥ 1 from the µop queue — every instruction of every later iteration is
// ready at the lock cycle, with no I-cache traffic after iteration 0.
func TestLSDLockdown(t *testing.T) {
	cpu := uarch.Haswell() // LSDSize 56
	body := feTestItems([3]int{4, 1, 0}, [3]int{4, 1, 0}, [3]int{4, 1, 0})
	items := repeatItems(body, 4)
	ready, _ := runModeledFetch(cpu, items, 3)
	lock := ready[2] // last instruction of iteration 0 sets the lock cycle
	for i := 3; i < len(items); i++ {
		if ready[i] != lock {
			t.Errorf("LSD iteration inst %d ready at %d, want lock cycle %d", i, ready[i], lock)
		}
	}

	// Skylake ships with the LSD fused off (SKL150 erratum): the same body
	// is DSB-resident instead, so later iterations advance with the
	// delivery rate rather than pinning to one cycle.
	skl := uarch.Skylake()
	if skl.FE.LSDSize != 0 {
		t.Fatalf("skylake LSDSize = %d, want 0 (erratum)", skl.FE.LSDSize)
	}

	// A body over the LSD µop budget on Haswell falls back to DSB/MITE:
	// later-iteration ready cycles keep increasing.
	big := make([][3]int, 60)
	for i := range big {
		big[i] = [3]int{4, 1, 0}
	}
	bigItems := repeatItems(feTestItems(big...), 2)
	bready, _ := runModeledFetch(cpu, bigItems, 60)
	if bready[len(bready)-1] == bready[60] {
		t.Error("60-µop body must not lock into the 56-µop LSD")
	}
}

// TestDSBPathAndSwitchPenalty: a DSB-resident (non-LSD) body pays one
// MITE→DSB switch penalty entering iteration 1, then streams at DSBWidth
// fused µops per cycle with no L1I accesses.
func TestDSBPathAndSwitchPenalty(t *testing.T) {
	cpu := uarch.Skylake() // LSD off, DSBWidth 6
	body := feTestItems(
		[3]int{4, 1, 0}, [3]int{4, 1, 0}, [3]int{4, 1, 0},
		[3]int{4, 1, 0}, [3]int{4, 1, 0}, [3]int{4, 1, 0},
	)
	const iters = 4
	items := repeatItems(body, iters)
	ready, ctr := runModeledFetch(cpu, items, len(body))

	// Iteration 0 decoded through MITE; its last instruction's stall-free
	// cycle plus the switch penalty starts iteration 1.
	iterStart := ready[5] + uint64(cpu.FE.SwitchPenalty)
	for it := 1; it < iters; it++ {
		cum := 0
		for k := 0; k < 6; k++ {
			cum += 1
			want := iterStart + uint64((cum-1)/cpu.FE.DSBWidth)
			if got := ready[6*it+k]; got != want {
				t.Errorf("iter %d inst %d ready at %d, want %d", it, k, got, want)
			}
		}
		// 6 fused µops at width 6 deliver in one cycle; the next iteration
		// starts where this one's last instruction left off.
		iterStart = ready[6*it+5]
	}

	// The body spans 24 bytes = one L1I line: exactly one cold miss, on
	// iteration 0 — DSB iterations never touch the I-cache.
	if ctr.L1IMisses != 1 {
		t.Errorf("L1I misses = %d, want 1 (DSB iterations bypass the I-cache)", ctr.L1IMisses)
	}
}

// TestModeledFetchMonotone: ready cycles never decrease in program order,
// whatever mix of paths the iterations take.
func TestModeledFetchMonotone(t *testing.T) {
	for _, cpu := range uarch.Extended() {
		body := feTestItems(
			[3]int{7, 2, 1}, [3]int{3, 1, 0}, [3]int{11, 4, 0},
			[3]int{2, 1, 1}, [3]int{9, 1, 0},
		)
		items := repeatItems(body, 8)
		ready, _ := runModeledFetch(cpu, items, len(body))
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[i-1] {
				t.Fatalf("%s: ready[%d]=%d < ready[%d]=%d", cpu.Name, i, ready[i], i-1, ready[i-1])
			}
		}
	}
}
