package ithemal

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

// encodeGob is a model file with the given header and weights, bypassing
// Save's consistency.
func encodeGob(t testing.TB, g modelGob) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// savedModel is Save's output for New(d, h, seed).
func savedModel(t testing.TB, d, h int, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := New(d, h, seed).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTensorLensMatchNew pins Load's shape table against what New
// allocates.
func TestTensorLensMatchNew(t *testing.T) {
	for _, dh := range [][2]int{{1, 1}, {8, 16}, {32, 64}} {
		ps := New(dh[0], dh[1], 1).params()
		want := tensorLens(dh[0], dh[1])
		if len(ps) != len(want) {
			t.Fatalf("New(%d, %d) has %d tensors, tensorLens %d", dh[0], dh[1], len(ps), len(want))
		}
		for i, p := range ps {
			if len(p.w) != want[i] {
				t.Errorf("New(%d, %d) tensor %d holds %d weights, tensorLens %d", dh[0], dh[1], i, len(p.w), want[i])
			}
		}
	}
}

// TestLoadRejectsBadSizes: a negative, zero or oversized D or H is an
// error, never a panic in New's make or an allocation the file's weights
// do not back.
func TestLoadRejectsBadSizes(t *testing.T) {
	var good modelGob
	if err := gob.NewDecoder(bytes.NewReader(savedModel(t, 2, 3, 1))).Decode(&good); err != nil {
		t.Fatal(err)
	}
	for _, dh := range [][2]int{{-1, 3}, {2, -5}, {0, 3}, {2, 0}, {1 << 40, 3}, {2, 1 << 40}, {math.MaxInt, math.MaxInt}} {
		g := good
		g.D, g.H = dh[0], dh[1]
		if _, err := Load(bytes.NewReader(encodeGob(t, g))); err == nil {
			t.Errorf("Load accepted D=%d H=%d", dh[0], dh[1])
		}
	}
}

// FuzzIthemalLoad throws arbitrary bytes at the model reader, seeded with
// Save's output and with headers whose sizes disagree with the weights.
// Any input yields an error or a model that saves and loads back to the
// same sizes and weights, never a panic.
func FuzzIthemalLoad(f *testing.F) {
	f.Add(savedModel(f, 1, 1, 1))
	f.Add(savedModel(f, 2, 3, 5))
	f.Add(encodeGob(f, modelGob{D: -1, H: 3}))
	f.Add(encodeGob(f, modelGob{D: 1 << 40, H: 1 << 40, Ws: [][]float64{{1}, {1}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("a loaded model does not load back: %v", err)
		}
		if again.D != m.D || again.H != m.H || again.step != m.step {
			t.Fatalf("sizes %d/%d step %d came back as %d/%d step %d", m.D, m.H, m.step, again.D, again.H, again.step)
		}
		ps, qs := m.params(), again.params()
		for i := range ps {
			for j := range ps[i].w {
				if math.Float64bits(ps[i].w[j]) != math.Float64bits(qs[i].w[j]) {
					t.Fatalf("tensor %d weight %d: %v came back as %v", i, j, ps[i].w[j], qs[i].w[j])
				}
			}
		}
	})
}
