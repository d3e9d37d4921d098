package profiler_test

import (
	"fmt"
	"sync"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/exec"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// passRecord is the µarch-independent content of one monitored run: every
// step's memory accesses and subnormal flag, the pages mapped, the stop
// reason and the error text.
type passRecord struct {
	steps []stepRecord
	pages int
	stop  profiler.Stop
	err   string
}

type stepRecord struct {
	load, store exec.MemAccess
	hasLoad     bool
	hasStore    bool
	subnormal   bool
}

func recordPass(pass *profiler.Pass) passRecord {
	r := passRecord{pages: pass.PagesMapped, stop: pass.Stop}
	if pass.Err != nil {
		r.err = pass.Err.Error()
	}
	for i := range pass.Steps {
		st := &pass.Steps[i]
		sr := stepRecord{subnormal: st.Subnormal}
		if st.Load != nil {
			sr.load, sr.hasLoad = *st.Load, true
		}
		if st.Store != nil {
			sr.store, sr.hasStore = *st.Store, true
		}
		r.steps = append(r.steps, sr)
	}
	return r
}

func (r passRecord) diff(o passRecord) string {
	switch {
	case r.pages != o.pages:
		return fmt.Sprintf("pages mapped %d vs %d", r.pages, o.pages)
	case r.stop != o.stop:
		return fmt.Sprintf("stop %d vs %d", r.stop, o.stop)
	case r.err != o.err:
		return fmt.Sprintf("error %q vs %q", r.err, o.err)
	case len(r.steps) != len(o.steps):
		return fmt.Sprintf("%d steps vs %d", len(r.steps), len(o.steps))
	}
	for i := range r.steps {
		if r.steps[i] != o.steps[i] {
			return fmt.Sprintf("step %d: %+v vs %+v", i, r.steps[i], o.steps[i])
		}
	}
	return ""
}

// TestMonitoredRunIsMicroarchIndependent pins the fact block-major
// measurement rests on: the monitored run of a block — its trace, physical
// addresses included, the pages it maps, where it stops and why — is the
// same on every microarchitecture that can prepare the block, stock or
// perturbed. Only the timing half of the protocol depends on the µarch.
func TestMonitoredRunIsMicroarchIndependent(t *testing.T) {
	// The race detector slows the run about tenfold; the race it looks
	// for is TestProfileEachEqualsProfile's.
	scale := 0.01
	if testing.Short() || raceEnabled {
		scale = 0.002
	}
	recs := corpus.GenerateAll(scale, 7)
	var profs []*profiler.Profiler
	for _, cpu := range uarch.Extended() {
		profs = append(profs,
			profiler.New(cpu, profiler.DefaultOptions()),
			profiler.New(cpu.Perturbed(), profiler.DefaultOptions()))
	}
	pairs := 0
	for ri, rec := range recs {
		if len(rec.Block.Insts) == 0 {
			continue
		}
		var ref *passRecord
		refCPU := ""
		for _, p := range profs {
			var got passRecord
			prepared := false
			p.Functional(rec.Block, func(pass *profiler.Pass) {
				if pass.Stop == profiler.StopPrepare {
					return
				}
				prepared = true
				got = recordPass(pass)
			})
			if !prepared {
				continue
			}
			if ref == nil {
				ref, refCPU = &got, p.CPU.Name
				continue
			}
			pairs++
			if d := ref.diff(got); d != "" {
				t.Fatalf("record %d: the monitored run on %s differs from %s: %s", ri, p.CPU.Name, refCPU, d)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no block was prepared on two microarchitectures")
	}
	t.Logf("%d blocks, %d (block, µarch) pairs compared", len(recs), pairs)
}

// groupKeys is one profiler per key of a block-major pass: every extended
// µarch, stock and perturbed (the xval backend pair), all on opts and
// sharing met.
func groupKeys(opts profiler.Options, met *profiler.Metrics) []*profiler.Profiler {
	var ps []*profiler.Profiler
	for _, cpu := range uarch.Extended() {
		for _, c := range []*uarch.CPU{cpu, cpu.Perturbed()} {
			p := profiler.New(c, opts)
			p.Metrics = met
			ps = append(ps, p)
		}
	}
	return ps
}

// groupBlocks is a small generated corpus plus blocks that only some
// µarchs support, blocks that crash, and an empty block.
func groupBlocks(t *testing.T) []*x86.Block {
	t.Helper()
	var blocks []*x86.Block
	for _, text := range []string{
		"vfmadd231ps ymm0, ymm1, ymm2\nvaddps ymm3, ymm0, ymm4", // no FMA on Ivy Bridge
		"vpaddd ymm0, ymm1, ymm2\nadd rax, rbx",                 // no AVX2 on Ivy Bridge
		"mov rax, qword ptr [0]\nadd rax, 1",                    // null page: crashes
		"xor edx, edx\ndiv rcx\nadd rax, rdx",                   // #DE
		"mov rcx, qword ptr [rsp+8]\nadd rcx, rax\nmov qword ptr [rsp+8], rcx",
	} {
		b, err := x86.ParseBlock(text, x86.SyntaxAuto)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	blocks = append(blocks, &x86.Block{})
	scale := 0.001
	if testing.Short() || raceEnabled {
		scale = 0.0003
	}
	for _, rec := range corpus.GenerateAll(scale, 7) {
		blocks = append(blocks, rec.Block)
	}
	return blocks
}

// sameResult compares two results field by field, the error by its text
// (each call builds its own error value).
func sameResult(a, b profiler.Result) bool {
	ea, eb := "", ""
	if a.Err != nil {
		ea = a.Err.Error()
	}
	if b.Err != nil {
		eb = b.Err.Error()
	}
	a.Err, b.Err = nil, nil
	return ea == eb && a == b
}

// TestProfileEachEqualsProfile: measuring a block for every key from one
// shared functional pass gives each key exactly what its own Profile call
// gives, error text included, under every option set the harness
// measures with — for blocks only some µarchs support. The Metrics
// records agree too, and the group ran at most one
// functional pass per block. Two workers drive the group concurrently, so
// `go test -race` checks the shared scratch.
func TestProfileEachEqualsProfile(t *testing.T) {
	modeled := profiler.DefaultOptions()
	modeled.ModeledFrontEnd = true
	noisy := profiler.DefaultOptions()
	noisy.RealSampleNoise = true
	blocks := groupBlocks(t)
	for _, tc := range []struct {
		name string
		opts profiler.Options
	}{
		{"default", profiler.DefaultOptions()},
		{"modeled-front-end", modeled},
		{"real-sample-noise", noisy},
		{"mapping", profiler.MappingOptions()},
		{"baseline", profiler.BaselineOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			groupMet, singleMet := new(profiler.Metrics), new(profiler.Metrics)
			group := groupKeys(tc.opts, groupMet)
			single := groupKeys(tc.opts, singleMet)

			got := make([][]profiler.Result, len(blocks))
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for bi := w; bi < len(blocks); bi += 2 {
						got[bi] = make([]profiler.Result, len(group))
						profiler.ProfileEach(blocks[bi], group, got[bi])
					}
				}()
			}
			wg.Wait()

			for bi, b := range blocks {
				for ki, p := range single {
					if want := p.Profile(b); !sameResult(got[bi][ki], want) {
						t.Fatalf("block %d on %s: ProfileEach %+v, Profile %+v", bi, p.CPU.Name, got[bi][ki], want)
					}
				}
			}
			g, s := groupMet.Snapshot(), singleMet.Snapshot()
			if g.Profiled != s.Profiled || g.ByStatus != s.ByStatus {
				t.Errorf("metrics differ: group %+v, per key %+v", g, s)
			}
			if g.Passes > uint64(len(blocks)) || g.PassServed > g.Profiled || g.PassServed < g.Passes {
				t.Errorf("group ran %d functional passes serving %d measurements for %d blocks (%d measured)",
					g.Passes, g.PassServed, len(blocks), g.Profiled)
			}
			if s.PassServed != s.Passes {
				t.Errorf("per-key calls: %d passes served %d measurements", s.Passes, s.PassServed)
			}
			t.Logf("%d blocks × %d keys: %d measured, %d functional passes (per key: %d)",
				len(blocks), len(group), g.Profiled, g.Passes, s.Passes)
		})
	}
}

// TestProfileEachRejectsMixedOptions: the shared pass needs equal options.
func TestProfileEachRejectsMixedOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ProfileEach accepted profilers with different options")
		}
	}()
	b, _ := x86.ParseBlock("add rax, rbx", x86.SyntaxIntel)
	ps := []*profiler.Profiler{
		profiler.New(uarch.Haswell(), profiler.DefaultOptions()),
		profiler.New(uarch.Skylake(), profiler.MappingOptions()),
	}
	profiler.ProfileEach(b, ps, make([]profiler.Result, 2))
}
