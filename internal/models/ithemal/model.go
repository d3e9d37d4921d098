package ithemal

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"

	"bhive/internal/x86"
)

// Model is the hierarchical LSTM throughput predictor.
type Model struct {
	D, H int // embedding and hidden sizes

	emb      *param // VocabSize x D
	tokLSTM  *lstm  // D -> H
	instLSTM *lstm  // H -> H
	outW     *param // H
	outB     *param // 1

	step int // Adam step counter
}

// New builds an untrained model with the given embedding and hidden sizes.
func New(d, h int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{D: d, H: h}
	m.emb = newParam(VocabSize*d, 0.1, rng)
	m.tokLSTM = newLSTM(d, h, rng)
	m.instLSTM = newLSTM(h, h, rng)
	m.outW = newParam(h, 1/math.Sqrt(float64(h)), rng)
	m.outB = newParam(1, 0, rng)
	return m
}

// Name implements the models.Predictor interface.
func (m *Model) Name() string { return "Ithemal" }

// forwardCache keeps everything needed for one block's backward pass.
type forwardCache struct {
	toks      [][]int
	tokSteps  [][]*lstmStep
	instSteps []*lstmStep
	blockVec  []float64
	y         float64 // predicted log-throughput
}

func (m *Model) forward(b *x86.Block) *forwardCache {
	fc := &forwardCache{toks: Tokenize(b)}
	zerosH := make([]float64, m.H)

	for _, toks := range fc.toks {
		h, c := zerosH, zerosH
		steps := make([]*lstmStep, 0, len(toks))
		for _, t := range toks {
			x := m.emb.w[t*m.D : (t+1)*m.D]
			s := m.tokLSTM.forward(x, h, c)
			steps = append(steps, s)
			h, c = s.h, s.c
		}
		fc.tokSteps = append(fc.tokSteps, steps)
	}

	h, c := zerosH, zerosH
	for _, steps := range fc.tokSteps {
		instVec := steps[len(steps)-1].h
		s := m.instLSTM.forward(instVec, h, c)
		fc.instSteps = append(fc.instSteps, s)
		h, c = s.h, s.c
	}
	fc.blockVec = h

	y := m.outB.w[0]
	for j, v := range h {
		y += m.outW.w[j] * v
	}
	fc.y = y
	return fc
}

// Predict implements the models.Predictor interface: it returns the
// predicted cycles per iteration.
func (m *Model) Predict(b *x86.Block) (float64, error) {
	if len(b.Insts) == 0 {
		return 0, fmt.Errorf("ithemal: empty block")
	}
	fc := m.forward(b)
	return math.Exp(fc.y), nil
}

// backward backpropagates the loss dL/dy through the whole hierarchy.
func (m *Model) backward(fc *forwardCache, dy float64) {
	dBlock := make([]float64, m.H)
	for j := range dBlock {
		m.outW.g[j] += dy * fc.blockVec[j]
		dBlock[j] = dy * m.outW.w[j]
	}
	m.outB.g[0] += dy

	// Instruction-level LSTM, backward through time.
	dh := dBlock
	dc := make([]float64, m.H)
	dInst := make([][]float64, len(fc.instSteps))
	for t := len(fc.instSteps) - 1; t >= 0; t-- {
		dx, dhPrev, dcPrev := m.instLSTM.backward(fc.instSteps[t], dh, dc)
		dInst[t] = dx
		dh, dc = dhPrev, dcPrev
	}

	// Token-level LSTMs (one run per instruction).
	for ti, steps := range fc.tokSteps {
		dhTok := dInst[ti]
		dcTok := make([]float64, m.H)
		for t := len(steps) - 1; t >= 0; t-- {
			dx, dhPrev, dcPrev := m.tokLSTM.backward(steps[t], dhTok, dcTok)
			tok := fc.toks[ti][t]
			ge := m.emb.g[tok*m.D : (tok+1)*m.D]
			for k := range dx {
				ge[k] += dx[k]
			}
			dhTok, dcTok = dhPrev, dcPrev
		}
	}
}

func (m *Model) params() []*param {
	ps := []*param{m.emb, m.outW, m.outB}
	ps = append(ps, m.tokLSTM.params()...)
	ps = append(ps, m.instLSTM.params()...)
	return ps
}

// clipGrads rescales gradients to a global norm bound.
func (m *Model) clipGrads(maxNorm float64) {
	var norm float64
	for _, p := range m.params() {
		for _, g := range p.g {
			norm += g * g
		}
	}
	norm = math.Sqrt(norm)
	if norm <= maxNorm {
		return
	}
	scale := maxNorm / norm
	for _, p := range m.params() {
		for i := range p.g {
			p.g[i] *= scale
		}
	}
}

// applyAdam steps every parameter.
func (m *Model) applyAdam(lr float64) {
	m.step++
	for _, p := range m.params() {
		p.adamStep(lr, m.step)
	}
}

// --- serialization ---

type modelGob struct {
	D, H int
	Ws   [][]float64
	Step int
}

// Save writes the model weights.
func (m *Model) Save(w io.Writer) error {
	g := modelGob{D: m.D, H: m.H, Step: m.step}
	for _, p := range m.params() {
		g.Ws = append(g.Ws, p.w)
	}
	return gob.NewEncoder(w).Encode(&g)
}

// tensorLens is the length of each tensor New(d, h) allocates, in
// params order.
func tensorLens(d, h int) []int {
	return []int{VocabSize * d, h, 1, 4 * h * d, 4 * h * h, 4 * h, 4 * h * h, 4 * h * h, 4 * h}
}

// Load reads model weights written by Save. The sizes must be positive and
// the tensors exactly the ones New allocates for them; both are checked
// before New allocates, so a corrupt file costs no more memory than the
// weights it holds.
func Load(r io.Reader) (*Model, error) {
	var g modelGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, err
	}
	if g.D < 1 || g.H < 1 {
		return nil, fmt.Errorf("ithemal: sizes D=%d H=%d, want both positive", g.D, g.H)
	}
	if len(g.Ws) != len(tensorLens(1, 1)) {
		return nil, fmt.Errorf("ithemal: weight count mismatch")
	}
	// The embedding holds VocabSize·D weights and the output layer H, so
	// sizes above those lengths cannot match; bounding them first keeps
	// tensorLens from overflowing.
	if g.D > len(g.Ws[0]) || g.H > len(g.Ws[1]) {
		return nil, fmt.Errorf("ithemal: sizes D=%d H=%d exceed the stored weights", g.D, g.H)
	}
	for i, n := range tensorLens(g.D, g.H) {
		if len(g.Ws[i]) != n {
			return nil, fmt.Errorf("ithemal: weight shape mismatch at tensor %d", i)
		}
	}
	m := New(g.D, g.H, 0)
	for i, p := range m.params() {
		copy(p.w, g.Ws[i])
	}
	m.step = g.Step
	return m, nil
}
