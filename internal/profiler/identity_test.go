package profiler

import (
	"encoding/hex"
	"testing"

	"bhive/internal/memo"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// TestBlockIdentityPinned pins the per-block RNG seed and the block hex
// Profile derives: both come from the encodings the lead key's memo walk
// resolves, and neither may move — a moved seed changes every accepted
// measurement's sample draws, a moved hex is a different corpus identity.
// An instruction that does not encode is left out of both, as before.
func TestBlockIdentityPinned(t *testing.T) {
	unencodable := x86.NewInst(x86.ADD, x86.ImmOp(1), x86.ImmOp(2))
	for _, tc := range []struct {
		text string
		bad  bool // insert an unencodable instruction after the first
		seed int64
		hex  string
	}{
		{"add rax, rbx", false, 5256716824703848238, "4801d8"},
		{"add rax, rbx\nimul rcx, rdx", false, 2856315402484814198, "4801d8480fafca"},
		{"add rax, rbx\nimul rcx, rdx", true, 2856315402484814198, "4801d8480fafca"},
		{"mov rcx, qword ptr [rsp+8]\nadd rcx, rax\nmov qword ptr [rsp+8], rcx", false, 2725420493542925639,
			"488b4c24084801c148894c2408"},
		{"vfmadd231ps ymm0, ymm1, ymm2\nvaddps ymm3, ymm0, ymm4", false, 6484381520217849145,
			"c4e275b8c2c5fc58dc"},
		{"div rcx", false, 5389033153528275139, "48f7f1"},
	} {
		b := block(t, tc.text)
		if tc.bad {
			b.Insts = append([]x86.Inst{b.Insts[0], unencodable}, b.Insts[1:]...)
		}
		// The identity does not depend on the µarch that resolves it.
		for _, cpu := range []*uarch.CPU{uarch.Haswell(), uarch.IvyBridge()} {
			ents, _ := resolve(cpu, memo.InternBlock(nil, b), nil, true)
			code := encoding(ents, nil)
			if got := blockSeed(code); got != tc.seed {
				t.Errorf("%q on %s: seed %d, pinned %d", tc.text, cpu.Name, got, tc.seed)
			}
			if got := hex.EncodeToString(code); got != tc.hex {
				t.Errorf("%q on %s: hex %s, pinned %s", tc.text, cpu.Name, got, tc.hex)
			}
		}
	}
}
