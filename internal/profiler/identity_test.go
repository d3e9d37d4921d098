package profiler

import (
	"encoding/hex"
	"path/filepath"
	"testing"

	"bhive/internal/memo"
	"bhive/internal/profcache"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// TestBlockIdentityPinned pins the per-block RNG seed and the persistent
// cache key Profile derives: both come from the encodings the lead key's
// memo walk resolves, and neither may move — a moved seed changes every
// accepted measurement's sample draws, a moved key orphans every cached
// profile. An instruction that does not encode is left out of both, as
// before.
func TestBlockIdentityPinned(t *testing.T) {
	unencodable := x86.NewInst(x86.ADD, x86.ImmOp(1), x86.ImmOp(2))
	for _, tc := range []struct {
		text string
		bad  bool // insert an unencodable instruction after the first
		seed int64
		hex  string
		key  string
	}{
		{"add rax, rbx", false, 5256716824703848238, "4801d8",
			"d05a262a6b8d557403797db3d45d5d7f5176881052e633766e15cc4f10ff8a53"},
		{"add rax, rbx\nimul rcx, rdx", false, 2856315402484814198, "4801d8480fafca",
			"8f941a7ce9d7fcbe60ef325907210e5ed1f1c1a4ba389e81d682c09ebe16b8bf"},
		{"add rax, rbx\nimul rcx, rdx", true, 2856315402484814198, "4801d8480fafca",
			"8f941a7ce9d7fcbe60ef325907210e5ed1f1c1a4ba389e81d682c09ebe16b8bf"},
		{"mov rcx, qword ptr [rsp+8]\nadd rcx, rax\nmov qword ptr [rsp+8], rcx", false, 2725420493542925639,
			"488b4c24084801c148894c2408",
			"b629d6057b8cd0f837bd8a8b9fdce18a2da6f93c0c8e299977d054c9645ab230"},
		{"vfmadd231ps ymm0, ymm1, ymm2\nvaddps ymm3, ymm0, ymm4", false, 6484381520217849145,
			"c4e275b8c2c5fc58dc",
			"6f605e9c935ae372373fa4c6354c7d9b8c52c19c66a6c70166b5a6131f0df821"},
		{"div rcx", false, 5389033153528275139, "48f7f1",
			"0955d932cd1bc125372a6e1020a0fe2964ef592b621814b1f7d37da3c1e83f51"},
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

		// Profile stores its result under exactly the pinned key.
		pc, err := profcache.Open(filepath.Join(t.TempDir(), "profiles.json"))
		if err != nil {
			t.Fatal(err)
		}
		p := New(uarch.Haswell(), DefaultOptions())
		p.Cache = pc
		p.Profile(b)
		if got := profcache.Key(tc.hex, "haswell", DefaultOptions().Fingerprint(), tc.seed); got != tc.key {
			t.Errorf("%q: key %s, pinned %s", tc.text, got, tc.key)
		}
		if _, ok := pc.Get(tc.key); !ok || pc.Len() != 1 {
			t.Errorf("%q: Profile did not store its result under the pinned key (%d entries)", tc.text, pc.Len())
		}
		if err := pc.Save(); err != nil {
			t.Fatal(err)
		}
	}
}
