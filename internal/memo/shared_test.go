package memo_test

import (
	"reflect"
	"testing"

	"bhive/internal/blocklint"
	"bhive/internal/bound"
	"bhive/internal/corpus"
	"bhive/internal/memo"
	"bhive/internal/models"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
)

// TestSharedShapesUnchanged runs every consumer of the memo entries — the
// four analytical models, the static bounds, the linter and the profiler's
// measurement pass — over a generated corpus on every microarchitecture,
// then checks that each published shape still equals a fresh Describe and
// DescribeRaw. Shapes are shared by every instruction with equal
// descriptions, so a consumer that edits one through an entry corrupts
// them all.
func TestSharedShapesUnchanged(t *testing.T) {
	scale := 0.01
	if testing.Short() || memo.RaceEnabled {
		scale = 0.002
	}
	recs := corpus.GenerateAll(scale, 7)
	cpus := uarch.Extended()
	opts := profiler.DefaultOptions()
	var ps []*profiler.Profiler
	for _, cpu := range cpus {
		ps = append(ps, profiler.New(cpu, opts))
	}
	out := make([]profiler.Result, len(ps))
	for _, cpu := range cpus {
		preds := models.All(cpu)
		lint := blocklint.New(cpu, opts)
		for _, r := range recs {
			for _, m := range preds {
				m.Predict(r.Block)
			}
			bound.Analyze(cpu, r.Block)
			lint.Analyze(r.Block)
		}
	}
	for _, r := range recs {
		profiler.ProfileEach(r.Block, ps, out)
	}

	for _, cpu := range cpus {
		a := memo.For(cpu)
		for _, r := range recs {
			for i := range r.Block.Insts {
				in := &r.Block.Insts[i]
				e := a.Prepared(in)
				desc, descErr := cpu.Describe(in)
				raw, rawErr := cpu.DescribeRaw(in)
				if !reflect.DeepEqual(e.Desc, desc) || !reflect.DeepEqual(e.DescErr, descErr) ||
					!reflect.DeepEqual(e.RawDesc, raw) || !reflect.DeepEqual(e.RawDescErr, rawErr) {
					t.Fatalf("%s/%s: shape changed after use: %+v (%v) / %+v (%v), want %+v (%v) / %+v (%v)",
						cpu.Name, in, e.Desc, e.DescErr, e.RawDesc, e.RawDescErr, desc, descErr, raw, rawErr)
				}
			}
		}
	}
}
