package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/memo"
	"bhive/internal/models"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkWorkerMatchesPredict predicts b on a worker that resolved it once
// on cpu and with each model's Predict, and requires bit-equal
// predictions and equal error text. It returns the error text per model.
func checkWorkerMatchesPredict(t *testing.T, w *predictWorker, cpu *uarch.CPU, preds []models.Predictor, label string, b *x86.Block) map[string]string {
	t.Helper()
	w.resolve(memo.For(cpu), b)
	errs := make(map[string]string, len(preds))
	for _, m := range preds {
		got, gerr := w.predict(m, b)
		want, werr := m.Predict(b)
		if math.Float64bits(got) != math.Float64bits(want) || errText(gerr) != errText(werr) {
			t.Fatalf("%s/%s/%s: worker %v (%v), Predict %v (%v)", cpu.Name, m.Name(), label, got, gerr, want, werr)
		}
		errs[m.Name()] = errText(gerr)
	}
	return errs
}

// TestPredictWorkerMatchesPredict pins the prediction pass's path — one
// resolve per block for all the models, one scratch per worker — against
// each model's own Predict over a generated corpus on every extended
// µarch, and over hand-built blocks whose failing instruction is not the
// first, which pin each model's first-error rule.
func TestPredictWorkerMatchesPredict(t *testing.T) {
	scale := 0.01
	if testing.Short() || raceEnabled {
		scale = 0.001
	}
	recs := corpus.GenerateAll(scale, 7)
	for _, cpu := range uarch.Extended() {
		preds := models.All(cpu)
		w := new(predictWorker)
		failed := 0
		for i := range recs {
			errs := checkWorkerMatchesPredict(t, w, cpu, preds, fmt.Sprintf("block %d", i), recs[i].Block)
			for _, e := range errs {
				if e != "" {
					failed++
				}
			}
		}
		t.Logf("%s: %d blocks, %d failed predictions", cpu.Name, len(recs), failed)
	}

	// The AVX2 form is unsupported on Ivy Bridge and the byte store is
	// refused by OSACA's parser. The models that read descriptions fail
	// on the AVX2 form wherever it stands; OSACA fails on whichever of the
	// two comes first.
	const (
		avx2      = "vpaddd ymm0, ymm1, ymm2"
		byteStore = "mov byte ptr [rax], cl"
		unsup     = "does not support"
		parser    = "osaca: unrecognized instruction form"
	)
	ivb := uarch.IvyBridge()
	for _, tc := range []struct {
		name  string
		insts []string
		cpu   *uarch.CPU
		want  map[string]string // model → error text prefix or fragment
	}{
		{"avx2 third", []string{"add rax, rbx", "imul rcx, rdx", avx2}, ivb, map[string]string{
			"IACA": unsup, "llvm-mca": unsup, "OSACA": unsup, "Facile": "bound: instruction 2: ",
		}},
		{"byte store second", []string{"add rax, rbx", byteStore}, uarch.Haswell(), map[string]string{
			"IACA": "", "llvm-mca": "", "OSACA": parser, "Facile": "",
		}},
		{"avx2 before byte store", []string{"add rax, rbx", avx2, byteStore}, ivb, map[string]string{
			"IACA": unsup, "llvm-mca": unsup, "OSACA": unsup, "Facile": "bound: instruction 1: ",
		}},
		{"byte store before avx2", []string{"add rax, rbx", byteStore, avx2}, ivb, map[string]string{
			"IACA": unsup, "llvm-mca": unsup, "OSACA": parser, "Facile": "bound: instruction 2: ",
		}},
	} {
		b, err := x86.ParseBlock(strings.Join(tc.insts, "\n"), x86.SyntaxIntel)
		if err != nil {
			t.Fatal(err)
		}
		errs := checkWorkerMatchesPredict(t, new(predictWorker), tc.cpu, models.All(tc.cpu), tc.name, b)
		for name, want := range tc.want {
			got := errs[name]
			if (want == "") != (got == "") || !strings.Contains(got, want) {
				t.Errorf("%s: %s error %q, want one containing %q", tc.name, name, got, want)
			}
		}
	}
}
