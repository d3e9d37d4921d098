package x86

import (
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// corpusSeeds are machine-code blocks from the generated benchmark suite
// (hardcoded: the corpus package imports x86, so this package cannot
// import it back). They seed the round-trip fuzzer and pin the
// deterministic round-trip test to realistic encodings.
var corpusSeeds = []string{
	"31d2f7f74c29d9",
	"888c1bbf010000450f5ce949c1fb0e",
	"4c0fafda66450fefc94d8b5550b86b020000488b00",
	"4809c84d8bbdb00000004985d34d0f44db48b9000000000080ffff4c8b01",
	"4d8d44245a4809ca4c8b7b304c8b84f398000000",
	"4985c14d0f44c14983c771498d86b5000000498b4424204d01c94d8985c0010000",
	"4983f0454d39f9f3480fb8c849c785b8010000200000004157415a488b86d801000085c0490f42c34983f031",
	"4983cb494c8d46774183c72a4153415af3440f58c049c1fb054c85d84c0f42d2488b93a0010000f3450f105e68c442edb8ee",
	"4931c84d29d1490fc84983ea27448b843bf0000000410f5bca4983c16b483b5768410f9cc0",
	"4528cfc4e205bce04129d74d8bbe980100004501db448b96ac01000066410f62f24d31d9c4621db8e14c8b7b10",
	"4d85f94129cb4d8bbee0010000",
	"660fefd24c85d2490f4dd74d39fa488b442428",
	"c5fdfec0c5f877", // vpaddd ymm; vzeroupper
	"488b442408",     // rsp-relative load
	"50415b",         // push rax; pop r11
}

// roundTrip decodes a block, re-encodes every instruction, decodes the
// canonical bytes again, and requires the two instruction sequences to be
// identical. The first decode→encode hop may change bytes — the encoder
// picks one canonical member per equivalence class of encodings (the exact
// classes are pinned in TestCanonicalEncoding) — but after that hop the
// bytes are a fixed point: re-encoding the canonical decode must reproduce
// them exactly. Semantic drift is never allowed.
func roundTrip(t *testing.T, raw []byte) {
	t.Helper()
	insts, err := DecodeBlock(raw)
	if err != nil {
		return // undecodable input is out of scope here
	}
	var code []byte
	for i := range insts {
		enc, err := Encode(insts[i])
		if err != nil {
			t.Fatalf("decoded %q from % x but cannot encode: %v", insts[i].String(), raw, err)
		}
		code = append(code, enc...)
	}
	again, err := DecodeBlock(code)
	if err != nil {
		t.Fatalf("canonical re-encoding % x of % x does not decode: %v", code, raw, err)
	}
	if len(again) != len(insts) {
		t.Fatalf("round trip of % x yields %d instructions, want %d", raw, len(again), len(insts))
	}
	for i := range insts {
		if !reflect.DeepEqual(insts[i], again[i]) {
			t.Fatalf("round trip of % x changes inst %d: %q -> %q", raw, i, insts[i].String(), again[i].String())
		}
	}
	code2, err := EncodeBlock(again)
	if err != nil {
		t.Fatalf("canonical % x of % x does not re-encode: %v", code, raw, err)
	}
	if !reflect.DeepEqual(code, code2) {
		t.Fatalf("canonical form of % x is not a fixed point: % x re-encodes to % x", raw, code, code2)
	}
}

// TestCanonicalEncoding pins the exact canonical member of every known
// equivalence class of encodings — the cases the round-trip invariant used
// to wave through as "known-lossy byte differences". Each entry lists
// equivalent encodings of one instruction; all must decode to the same
// instruction and re-encode to precisely the canonical (first) member,
// which must itself be a decode→encode fixed point.
func TestCanonicalEncoding(t *testing.T) {
	classes := []struct {
		name string
		encs []string // hex; encs[0] is the canonical form
	}{
		// Direction-bit duals: reg-reg ALU/mov ops encode via either the
		// rm,reg opcode or the reg,rm opcode; the form table lists the
		// rm,reg (store-direction) opcode first, so it is canonical.
		{"mov r8 direction", []string{"88c8", "8ac1"}},
		{"mov r32 direction", []string{"89c8", "8bc1"}},
		{"mov r64 direction", []string{"4889c8", "488bc1"}},
		{"xor r32 direction", []string{"31c8", "33c1"}},
		{"add r64 direction", []string{"4801c8", "48 03c1"}},
		// SSE moves dual-direction opcodes: the load direction (0F 28/10/6F)
		// is listed first, so it is canonical for reg-reg moves.
		{"movaps direction", []string{"0f28c8", "0f29c1"}},
		{"movdqa direction", []string{"660f6fc8", "660f7fc1"}},
		// VEX prefix length: a 3-byte VEX with map 1, W=0 and no X/B
		// extension is redundant — the 2-byte C5 form encodes the same
		// instruction and is canonical.
		{"vex 2-byte vpaddd", []string{"c5fdfec0", "c4e17dfec0"}},
		{"vex 2-byte vpxor", []string{"c5f1efc2", "c4e171efc2"}},
		// VEX direction duals compose with the prefix-length class.
		{"vmovaps direction", []string{"c5fc28c8", "c5fc29c1", "c4e17c28c8", "c4e17c29c1"}},
	}
	for _, tc := range classes {
		t.Run(tc.name, func(t *testing.T) {
			canon, err := hex.DecodeString(strings.ReplaceAll(tc.encs[0], " ", ""))
			if err != nil {
				t.Fatal(err)
			}
			want, err := DecodeBlock(canon)
			if err != nil || len(want) != 1 {
				t.Fatalf("canonical %s does not decode to one instruction: %v", tc.encs[0], err)
			}
			for _, e := range tc.encs {
				raw, err := hex.DecodeString(strings.ReplaceAll(e, " ", ""))
				if err != nil {
					t.Fatal(err)
				}
				insts, err := DecodeBlock(raw)
				if err != nil {
					t.Fatalf("%s does not decode: %v", e, err)
				}
				if len(insts) != 1 || !reflect.DeepEqual(insts[0], want[0]) {
					t.Fatalf("%s decodes to %v, want %q", e, insts, want[0].String())
				}
				code, err := EncodeBlock(insts)
				if err != nil {
					t.Fatalf("%s (%q) does not encode: %v", e, insts[0].String(), err)
				}
				if !reflect.DeepEqual(code, canon) {
					t.Fatalf("%s re-encodes to % x, want canonical % x", e, code, canon)
				}
			}
		})
	}

	// Near misses: encodings one bit away from a class member that are NOT
	// redundant must keep their 3-byte VEX form (B extension in use).
	for _, e := range []string{"c4c17dfec0", "450f28c1"} {
		raw, _ := hex.DecodeString(e)
		insts, err := DecodeBlock(raw)
		if err != nil {
			t.Fatalf("%s does not decode: %v", e, err)
		}
		code, err := EncodeBlock(insts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(code, raw) {
			t.Fatalf("%s is already canonical but re-encodes to % x", e, code)
		}
	}
}

// TestCorpusRoundTrip pins decode→encode→decode stability on realistic
// corpus blocks.
func TestCorpusRoundTrip(t *testing.T) {
	for _, seed := range corpusSeeds {
		raw, err := hex.DecodeString(seed)
		if err != nil {
			t.Fatal(err)
		}
		insts, err := DecodeBlock(raw)
		if err != nil {
			t.Fatalf("corpus seed %s does not decode: %v", seed, err)
		}
		if len(insts) == 0 {
			t.Fatalf("corpus seed %s decodes to nothing", seed)
		}
		roundTrip(t, raw)
	}
}

// TestRandomRoundTrip extends the byte-soup fuzzing to the block-level
// round-trip invariant, and to DecodeBlockInto on reused buffers.
func TestRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 24)
	var into intoBufs
	for i := 0; i < 50000; i++ {
		n := 1 + rng.Intn(23)
		for j := 0; j < n; j++ {
			buf[j] = byte(rng.Intn(256))
		}
		roundTrip(t, buf[:n])
		into.check(t, buf[:n])
	}
}

// intoBufs are DecodeBlockInto's buffers, reused from one input to the
// next so each decode starts on the previous one's leftovers.
type intoBufs struct {
	insts []Inst
	args  []Operand
}

// check requires DecodeBlockInto on the reused buffers to equal
// DecodeBlock: the same error, DecodeErr's Offset and Index included, or
// the same instructions, each one's Args a window of the returned args
// with no spare capacity, nil when it has no operands.
func (b *intoBufs) check(t *testing.T, raw []byte) {
	t.Helper()
	want, wantErr := DecodeBlock(raw)
	got, args, err := DecodeBlockInto(b.insts, b.args, raw)
	b.insts, b.args = got, args
	if !reflect.DeepEqual(err, wantErr) {
		t.Fatalf("% x: DecodeBlockInto error %v, DecodeBlock %v", raw, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("% x: DecodeBlockInto yields %d instructions, DecodeBlock %d", raw, len(got), len(want))
	}
	off := 0
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("% x: instruction %d: DecodeBlockInto %q, DecodeBlock %q", raw, i, got[i].String(), want[i].String())
		}
		if n := len(got[i].Args); n > 0 {
			if cap(got[i].Args) != n || &got[i].Args[0] != &args[off] {
				t.Fatalf("% x: instruction %d's operands are not its window of the arena", raw, i)
			}
			off += n
		}
	}
	if off != len(args) {
		t.Fatalf("% x: %d operands in an arena of %d", raw, off, len(args))
	}
}

// FuzzDecodeEncodeDecode is the native-fuzzing entry for the round-trip
// invariant: go test -fuzz=FuzzDecodeEncodeDecode ./internal/x86.
func FuzzDecodeEncodeDecode(f *testing.F) {
	for _, seed := range corpusSeeds {
		raw, err := hex.DecodeString(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	var (
		mu   sync.Mutex
		into intoBufs
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		roundTrip(t, data)
		mu.Lock()
		defer mu.Unlock()
		into.check(t, data)
	})
}

// TestDecodeErrIndex checks the block-level decode error: it must locate
// the failure by both byte offset and instruction index.
func TestDecodeErrIndex(t *testing.T) {
	// Two valid movs followed by a truncated instruction.
	raw, _ := hex.DecodeString("4889c84889d9ff")
	_, err := DecodeBlock(raw)
	if err == nil {
		t.Fatal("want decode error")
	}
	de, ok := err.(*DecodeErr)
	if !ok {
		t.Fatalf("want *DecodeErr, got %T", err)
	}
	if de.Index != 2 {
		t.Errorf("index %d, want 2", de.Index)
	}
	if de.Offset < 6 {
		t.Errorf("offset %d, want >= 6 (failure inside the third instruction)", de.Offset)
	}
	if s := de.Error(); s == "" || !containsAll(s, "offset", "instruction 2") {
		t.Errorf("error text %q should carry offset and instruction index", s)
	}

	// A single-instruction decode failure keeps the terse format: no
	// instruction clause when nothing decoded before it.
	_, _, err = Decode([]byte{0xff})
	if err == nil {
		t.Fatal("want decode error")
	}
	if de, ok := err.(*DecodeErr); ok && de.Index != 0 {
		t.Errorf("single-inst failure index %d, want 0", de.Index)
	}
}

// TestDecodeBlockResult pins DecodeBlock's result: nil for an empty block,
// exactly as long as its capacity, and owned by the caller — a later
// decode through the recycled buffer leaves it unchanged.
func TestDecodeBlockResult(t *testing.T) {
	if insts, err := DecodeBlock(nil); insts != nil || err != nil {
		t.Fatalf("empty block: %v, %v; want nil, nil", insts, err)
	}
	raw, _ := hex.DecodeString("4889c84889d94801d8")
	first, err := DecodeBlock(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 || cap(first) != len(first) {
		t.Fatalf("%d instructions in a slice of capacity %d, want 3 in 3", len(first), cap(first))
	}
	want := make([]string, len(first))
	for i := range first {
		want[i] = first[i].String()
	}
	other, _ := hex.DecodeString("31c0ffc0")
	if _, err := DecodeBlock(other); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if got := first[i].String(); got != want[i] {
			t.Fatalf("instruction %d changed to %s after another decode, want %s", i, got, want[i])
		}
	}
}

// TestDecodeBlockAllocs pins decode's allocations over the corpus seeds:
// DecodeBlockInto on warm buffers allocates nothing, and DecodeBlock
// allocates its exact-size result, the instructions and their one operand
// array.
func TestDecodeBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	var raws [][]byte
	for _, seed := range corpusSeeds {
		raw, err := hex.DecodeString(seed)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	var into intoBufs
	decodeInto := func() {
		for _, raw := range raws {
			into.insts, into.args, _ = DecodeBlockInto(into.insts, into.args, raw)
		}
	}
	decodeInto()
	if allocs := testing.AllocsPerRun(20, decodeInto); allocs != 0 {
		t.Errorf("DecodeBlockInto makes %.1f allocations per pass over %d blocks on warm buffers, want 0", allocs, len(raws))
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, raw := range raws {
			if _, err := DecodeBlock(raw); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := allocs / float64(len(raws)); per > 2 {
		t.Errorf("DecodeBlock makes %.2f allocations per block, want at most 2", per)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
