// Package models implements the four basic-block throughput predictors the
// paper validates against the measurement framework: an IACA-like port
// simulator with vendor knowledge, an llvm-mca-like simulator driven by a
// compiler scheduling model, an OSACA-like analytical port-pressure model
// behind a fragile parser, and (in the ithemal subpackage) a learned LSTM
// regressor.
//
// Each model carries deliberately injected, documented inaccuracies that
// reproduce the error profiles the paper reports — confusing the 32-bit
// divide with the 64-bit one, missing zero idioms, fusing a load with its
// consumer so independent loads cannot be hoisted, treating
// memory-destination immediates as NOPs, and so on.
package models

import (
	"hash/fnv"
	"sync"

	"bhive/internal/bound"
	"bhive/internal/memo"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// Predictor predicts the steady-state inverse throughput (cycles per
// iteration) of a basic block — IACA's definition, as used by the paper.
type Predictor interface {
	Name() string
	Predict(b *x86.Block) (float64, error)
}

// ResolvedPredictor is a Predictor that also predicts a block already
// resolved on its microarchitecture. IACA, llvm-mca, OSACA and Facile
// implement it, and their Predict is PredictResolved on the block's
// entries and a pooled Scratch; a caller that predicts many blocks
// resolves each once and keeps its own Scratch (DESIGN.md §15).
type ResolvedPredictor interface {
	Predictor
	// PredictResolved returns what Predict(b) returns. entries must be
	// b's memo entries on the model's microarchitecture, in block order
	// (memo.Arch.Resolve); s holds all the working memory, and the result
	// does not keep it. Each model applies its own error rule by scanning
	// the entries in order.
	PredictResolved(b *x86.Block, entries []*memo.PreparedInst, s *Scratch) (float64, error)
}

// Scratch is the working memory of resolved predictions: every arena the
// analytical models fill while predicting one block, reused for the next.
// One goroutine owns it; the zero value is ready to use.
type Scratch struct {
	insts []simInst // IACA and llvm-mca: the model's view of the block
	uops  []simUop  // the µops insts window into
	sim   simScratch

	pressure []float64   // OSACA: per-port pressure
	osaca    []osacaInst // OSACA: the parsed instructions

	bound bound.Scratch // Facile
}

// pooled is the working memory of one Predict call: the block's entries
// and a Scratch.
type pooled struct {
	entries []*memo.PreparedInst
	Scratch
}

var scratchPool = sync.Pool{New: func() any { return new(pooled) }}

// predictPooled is Predict for a model on cpu with the resolved path
// predict: it resolves b and predicts it on a pooled scratch.
func predictPooled(cpu *uarch.CPU, b *x86.Block, predict func(*x86.Block, []*memo.PreparedInst, *Scratch) (float64, error)) (float64, error) {
	p := scratchPool.Get().(*pooled)
	defer scratchPool.Put(p)
	p.entries = memo.For(cpu).Resolve(p.entries[:0], b)
	return predict(b, p.entries, &p.Scratch)
}

// ScheduleEntry is one row of a predicted execution trace (for the paper's
// scheduling-comparison figure).
type ScheduleEntry struct {
	Iteration int
	Inst      string
	Uop       string
	Dispatch  int64
	Complete  int64
}

// ScheduleTracer is implemented by simulator-backed models that can report
// the schedule they predict.
type ScheduleTracer interface {
	Schedule(b *x86.Block, iterations int) ([]ScheduleEntry, error)
}

// perturb deterministically scales a latency the way a hand-maintained,
// partially wrong latency table would: a salted hash of the opcode decides
// whether and how far this entry drifted from silicon.
func perturb(lat uint8, op x86.Op, salt string, prob float64, strength float64) uint8 {
	if lat == 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(salt))
	h.Write([]byte{byte(op), byte(op >> 8)})
	v := h.Sum64()
	if float64(v%1000)/1000 >= prob {
		return lat
	}
	// Drift by ±strength in four steps.
	factors := []float64{1 - strength, 1 - strength/2, 1 + strength/2, 1 + strength}
	f := factors[(v>>10)%4]
	out := int(float64(lat)*f + 0.5)
	if out < 1 {
		out = 1
	}
	if out > 250 {
		out = 250
	}
	return uint8(out)
}

// All returns the analytical predictors for a CPU in paper order — the
// three reimplemented third-party models plus the bound-based Facile
// predictor (the learned model lives in the ithemal subpackage and needs
// training).
func All(cpu *uarch.CPU) []Predictor {
	return []Predictor{NewIACA(cpu), NewLLVMMCA(cpu), NewOSACA(cpu), NewFacile(cpu)}
}
