package bhive

// Benchmark harness: one benchmark per table/figure of the paper plus
// ablation and micro benchmarks. Each BenchmarkTableN regenerates the
// corresponding result; custom metrics attach the headline numbers (error
// rates, profiled fractions) to the benchmark output so `go test -bench`
// output doubles as an experiment log.
//
// Scale: benchmarks default to 0.003 of the full suite so the whole run
// finishes in minutes; set BHIVE_BENCH_SCALE to raise it (the paper's full
// scale is 1.0 = 358,561 blocks).

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"bhive/internal/bound"
	"bhive/internal/cache"
	"bhive/internal/classify"
	"bhive/internal/corpus"
	"bhive/internal/exec"
	"bhive/internal/harness"
	"bhive/internal/machine"
	"bhive/internal/memo"
	"bhive/internal/models"
	"bhive/internal/models/ithemal"
	"bhive/internal/pipeline"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/vm"
	"bhive/internal/x86"
)

func benchScale() float64 {
	if v := os.Getenv("BHIVE_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.003
}

var (
	suiteOnce sync.Once
	suite     *harness.Suite
)

func benchSuite() *harness.Suite {
	suiteOnce.Do(func() {
		cfg := harness.DefaultConfig()
		cfg.Scale = benchScale()
		suite = harness.New(cfg)
	})
	return suite
}

func parseNum(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("bad number %q", s)
	}
	return v
}

// BenchmarkTable1Ablation regenerates the measurement ablation (Table I).
func BenchmarkTable1Ablation(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab := s.Table1()
		for _, row := range tab.Rows {
			name := map[string]string{
				"None":                       "pctNone",
				"Mapping all accessed pages": "pctMapped",
				"More intelligent unrolling": "pctFull",
			}[row[0]]
			v, err := strconv.ParseFloat(row[1][:len(row[1])-1], 64)
			if err == nil && name != "" {
				b.ReportMetric(v, name)
			}
		}
	}
}

// BenchmarkTable2SampleBlock regenerates the per-block ablation (Table II).
func BenchmarkTable2SampleBlock(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab := s.Table2()
		b.ReportMetric(parseNum(b, tab.Rows[4][1]), "finalTP")
	}
}

// BenchmarkTable3Corpus regenerates the source-application counts.
func BenchmarkTable3Corpus(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab := s.Table3()
		if tab.Rows[len(tab.Rows)-1][2] != "358561" {
			b.Fatal("table III total drifted")
		}
	}
}

// BenchmarkTable4Categories regenerates the LDA category table.
func BenchmarkTable4Categories(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab := s.Table4()
		b.ReportMetric(parseNum(b, tab.Rows[1][2]), "cat2Blocks")
		b.ReportMetric(parseNum(b, tab.Rows[5][2]), "cat6Blocks")
	}
}

// BenchmarkFigAppsVsClusters regenerates the per-application breakdown.
func BenchmarkFigAppsVsClusters(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab := s.FigAppsVsClusters()
		if len(tab.Rows) != 10 {
			b.Fatal("application rows")
		}
	}
}

// BenchmarkTable5Overall regenerates the headline error table (Table V)
// for the three analytical models on all three microarchitectures.
func BenchmarkTable5Overall(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab, err := s.Table5()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			b.ReportMetric(parseNum(b, row[2]), "err_"+row[0]+"_"+row[1])
		}
	}
}

// BenchmarkFigClusterErr regenerates the per-category error breakdown on
// Haswell (the per-cluster figures).
func BenchmarkFigClusterErr(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab, err := s.FigClusterErr(uarch.Haswell())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 6 {
			b.Fatal("category rows")
		}
	}
}

// BenchmarkFigAppErr regenerates the per-application error breakdown on
// Haswell (the per-application figures).
func BenchmarkFigAppErr(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab, err := s.FigAppErr(uarch.Haswell())
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 10 {
			b.Fatal("application rows")
		}
	}
}

// BenchmarkCaseStudy regenerates the interesting-blocks table.
func BenchmarkCaseStudy(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab, err := s.CaseStudy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(parseNum(b, tab.Rows[0][1]), "divMeasured")
	}
}

// BenchmarkFigScheduling regenerates the llvm-mca vs IACA schedule figure.
func BenchmarkFigScheduling(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.FigScheduling(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Google regenerates the Spanner/Dremel accuracy table.
func BenchmarkTable6Google(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab, err := s.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) < 4 {
			b.Fatal("google rows")
		}
		b.ReportMetric(parseNum(b, tab.Rows[0][4]), "spannerTauIACA")
	}
}

// BenchmarkFigGoogleBlocks regenerates the Spanner/Dremel composition.
func BenchmarkFigGoogleBlocks(b *testing.B) {
	s := benchSuite()
	for i := 0; i < b.N; i++ {
		tab, err := s.FigGoogleBlocks()
		if err != nil {
			b.Fatal(err)
		}
		// Category-6 share, weighted by frequency (paper: 40-50%).
		b.ReportMetric(parseNum(b, tab.Rows[0][6]), "spannerCat6Pct")
	}
}

// --- Ablation benchmarks for the design choices DESIGN.md calls out ---

// BenchmarkAblationDerivedVsNaive compares acceptance under the two
// unrolling strategies on a large kernel block.
func BenchmarkAblationDerivedVsNaive(b *testing.B) {
	big := harness.SampleTFBlock()
	naive := profiler.New(uarch.Haswell(), profiler.MappingOptions())
	derived := profiler.New(uarch.Haswell(), profiler.DefaultOptions())
	for i := 0; i < b.N; i++ {
		rn := naive.Profile(big)
		rd := derived.Profile(big)
		if rn.Status == profiler.StatusOK {
			b.Fatal("naive unrolling must fail on the big block")
		}
		if rd.Status != profiler.StatusOK {
			b.Fatalf("derived method must succeed: %v", rd.Status)
		}
		b.ReportMetric(rd.Throughput, "derivedTP")
	}
}

// BenchmarkAblationSinglePhysPage compares the single-physical-page trick
// against per-page frames on a page-strided block.
func BenchmarkAblationSinglePhysPage(b *testing.B) {
	block, err := x86.ParseBlock(`mov rax, qword ptr [rbx]
		mov rcx, qword ptr [rbx+0x1000]
		mov rdx, qword ptr [rbx+0x2000]
		mov rsi, qword ptr [rbx+0x3000]
		mov r8, qword ptr [rbx+0x4000]
		mov r9, qword ptr [rbx+0x5000]
		mov r10, qword ptr [rbx+0x6000]
		mov r11, qword ptr [rbx+0x7000]
		mov r12, qword ptr [rbx+0x8000]
		mov r13, qword ptr [rbx+0x9000]
		mov r14, qword ptr [rbx+0xa000]`, x86.SyntaxIntel)
	if err != nil {
		b.Fatal(err)
	}
	multi := profiler.MappingOptions()
	multi.SinglePhysPage = false
	pm := profiler.New(uarch.Haswell(), multi)
	ps := profiler.New(uarch.Haswell(), profiler.MappingOptions())
	for i := 0; i < b.N; i++ {
		if pm.Profile(block).Status != profiler.StatusCacheMiss {
			b.Fatal("distinct frames must miss")
		}
		if ps.Profile(block).Status != profiler.StatusOK {
			b.Fatal("single frame must hit")
		}
	}
}

// BenchmarkAblationFTZ compares measurement with and without the MXCSR
// gradual-underflow protection on a subnormal-heavy block.
func BenchmarkAblationFTZ(b *testing.B) {
	block, err := x86.ParseBlock(`mov eax, 0x00200000
		movd xmm1, eax
		mulss xmm0, xmm1
		addss xmm2, xmm0`, x86.SyntaxIntel)
	if err != nil {
		b.Fatal(err)
	}
	on := profiler.New(uarch.Haswell(), profiler.DefaultOptions())
	offOpts := profiler.DefaultOptions()
	offOpts.DisableSubnormals = false
	off := profiler.New(uarch.Haswell(), offOpts)
	for i := 0; i < b.N; i++ {
		ron, roff := on.Profile(block), off.Profile(block)
		if ron.Status != profiler.StatusOK || roff.Status != profiler.StatusOK {
			b.Fatalf("%v %v", ron.Status, roff.Status)
		}
		b.ReportMetric(roff.Throughput/ron.Throughput, "subnormalSlowdown")
	}
}

// --- Micro benchmarks of the substrates ---

// BenchmarkProfileHotPath is the perf-trajectory benchmark for the
// profiling pipeline: a register-only block and a memory block that needs
// the page-mapping monitor, profiled with the full methodology. ns/op and
// allocs/op divided by blocksPerOp give the per-block cost recorded in
// BENCH_profiler.json.
func BenchmarkProfileHotPath(b *testing.B) {
	small, _ := x86.ParseBlock("add rax, rbx\nmov rcx, qword ptr [rsp+8]", x86.SyntaxIntel)
	crc, _ := x86.ParseBlock(harness.CRCBlockText, x86.SyntaxATT)
	opts := profiler.DefaultOptions()
	opts.FilterMisaligned = false // the CRC table walk occasionally splits lines
	p := profiler.New(uarch.Haswell(), opts)
	blocks := []*x86.Block{small, crc}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			if p.Profile(blk).Status != profiler.StatusOK {
				b.Fatal("profile failed")
			}
		}
	}
	b.ReportMetric(float64(len(blocks)), "blocksPerOp")
}

// BenchmarkProfileGroup measures generated blocks on the six xval keys —
// the three paper µarchs, stock and perturbed — from one functional pass
// per block (profiler.ProfileEach, "group") and, as the baseline, with one
// Profile call per key ("per-key"). One op is one block on all six keys,
// so ns/op and allocs/op are per block.
func BenchmarkProfileGroup(b *testing.B) {
	recs := corpus.GenerateAll(0.001, 7)
	var ps []*profiler.Profiler
	for _, cpu := range uarch.All() {
		ps = append(ps,
			profiler.New(cpu, profiler.DefaultOptions()),
			profiler.New(cpu.Perturbed(), profiler.DefaultOptions()))
	}
	out := make([]profiler.Result, len(ps))
	group := func(blk *x86.Block) { profiler.ProfileEach(blk, ps, out) }
	perKey := func(blk *x86.Block) {
		for k, p := range ps {
			out[k] = p.Profile(blk)
		}
	}
	for _, mode := range []struct {
		name    string
		measure func(*x86.Block)
	}{{"group", group}, {"per-key", perKey}} {
		b.Run(mode.name, func(b *testing.B) {
			for _, r := range recs { // warm the memo tables and the pools
				mode.measure(r.Block)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mode.measure(recs[i%len(recs)].Block)
			}
		})
	}
}

func BenchmarkProfileSmallBlock(b *testing.B) {
	block, _ := x86.ParseBlock("add rax, rbx\nmov rcx, qword ptr [rsp+8]", x86.SyntaxIntel)
	p := profiler.New(uarch.Haswell(), profiler.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Profile(block).Status != profiler.StatusOK {
			b.Fatal("profile failed")
		}
	}
}

func BenchmarkPredictIACA(b *testing.B) {
	block, _ := x86.ParseBlock(harness.CRCBlockText, x86.SyntaxATT)
	m := models.NewIACA(uarch.Haswell())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(block); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	mixedOnce   sync.Once
	mixedBlocks []*x86.Block
)

// mixedBlockSet returns a fixed, deterministic block set covering every
// corpus category: the first perCategory blocks of each LDA category in a
// small seed-1 corpus, classified the way Table IV classifies them.
func mixedBlockSet() []*x86.Block {
	const perCategory = 8
	mixedOnce.Do(func() {
		recs := corpus.GenerateAll(0.002, 1)
		blocks := make([]*x86.Block, len(recs))
		for i := range recs {
			blocks[i] = recs[i].Block
		}
		cls := classify.Fit(uarch.Haswell(), blocks, classify.DefaultOptions())
		taken := map[classify.Category]int{}
		for i, c := range cls.Categories() {
			if taken[c] < perCategory {
				taken[c]++
				mixedBlocks = append(mixedBlocks, blocks[i])
			}
		}
	})
	return mixedBlocks
}

// BenchmarkPredictMixed times Predict for each analytical model over the
// mixed-category block set; ns/op divided by blocksPerOp is the per-block
// cost. Prediction errors (OSACA's parser rejects some forms) are part of
// the workload and counted, not fatal.
func BenchmarkPredictMixed(b *testing.B) {
	blocks := mixedBlockSet()
	for _, m := range models.All(uarch.Haswell()) {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			errs := 0
			for i := 0; i < b.N; i++ {
				for _, blk := range blocks {
					if _, err := m.Predict(blk); err != nil {
						errs++
					}
				}
			}
			b.ReportMetric(float64(len(blocks)), "blocksPerOp")
			b.ReportMetric(float64(errs)/float64(b.N), "errorsPerOp")
		})
	}
}

// raceEnabled reports whether the test binary was built with the race
// detector, under which sync.Pool drops items at random and allocation
// counts mean nothing.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestFromPreparedAllocs pins the bound analysis's pooled working memory:
// over the mixed block set, FromPrepared allocates at most the Bounds it
// returns.
func TestFromPreparedAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	cpu := uarch.Haswell()
	arch := memo.For(cpu)
	var sets [][]*memo.PreparedInst
	for _, b := range mixedBlockSet() {
		entries := make([]*memo.PreparedInst, len(b.Insts))
		for i := range b.Insts {
			entries[i] = arch.Prepared(&b.Insts[i])
		}
		sets = append(sets, entries)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, entries := range sets {
			if _, err := bound.FromPrepared(cpu, entries); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := allocs / float64(len(sets)); per > 1 {
		t.Fatalf("FromPrepared makes %.2f allocations per call, want at most 1", per)
	}
}

// TestPredictMixedFacileAllocs pins BenchmarkPredictMixed/Facile's
// allocation budget: at most 100 allocations per pass over the mixed
// block set.
func TestPredictMixedFacileAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	blocks := mixedBlockSet()
	m := models.NewFacile(uarch.Haswell())
	allocs := testing.AllocsPerRun(20, func() {
		for _, b := range blocks {
			if _, err := m.Predict(b); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 100 {
		t.Fatalf("Facile makes %.0f allocations per %d blocks, want at most 100", allocs, len(blocks))
	}
}

// TestPredictResolvedAllocs pins the prediction workers' path over the
// mixed block set on Haswell: each block resolved once and predicted by
// all four analytical models on one warm models.Scratch. IACA, llvm-mca
// and OSACA allocate nothing per block they predict, Facile at most the
// *Bounds it returns. Collecting twice between blocks empties every
// sync.Pool, so the pin fails if the path falls back to one. A block
// OSACA's parser refuses costs one allocation, the error value.
func TestPredictResolvedAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	hsw := uarch.Haswell()
	arch := memo.For(hsw)
	var (
		entries []*memo.PreparedInst
		scr     models.Scratch
	)
	predict := func(m models.ResolvedPredictor, b *x86.Block) error {
		entries = arch.Resolve(entries[:0], b)
		_, err := m.PredictResolved(b, entries, &scr)
		return err
	}
	blocks := mixedBlockSet()
	preds := models.All(hsw)
	// Warm the scratch with every model, and split the set by verdict.
	accepted := make([][]*x86.Block, len(preds))
	refused := make([][]*x86.Block, len(preds))
	for _, b := range blocks {
		for k, p := range preds {
			if err := predict(p.(models.ResolvedPredictor), b); err != nil {
				refused[k] = append(refused[k], b)
			} else {
				accepted[k] = append(accepted[k], b)
			}
		}
	}
	perBlock := func(m models.ResolvedPredictor, set []*x86.Block) float64 {
		allocs := testing.AllocsPerRun(2, func() {
			for _, b := range set {
				// Two collections: the first moves pooled items to the
				// victim cache, the second drops them.
				runtime.GC()
				runtime.GC()
				predict(m, b)
			}
		})
		return allocs / float64(len(set))
	}
	for k, p := range preds {
		m := p.(models.ResolvedPredictor)
		budget := 0.0
		if m.Name() == "Facile" {
			budget = 1
		}
		if m.Name() != "OSACA" && len(refused[k]) > 0 {
			t.Fatalf("%s refuses %d mixed blocks", m.Name(), len(refused[k]))
		}
		if per := perBlock(m, accepted[k]); per > budget {
			t.Errorf("%s makes %.2f allocations per predicted block, want at most %.0f", m.Name(), per, budget)
		}
		if len(refused[k]) > 0 {
			if per := perBlock(m, refused[k]); per > 1 {
				t.Errorf("%s makes %.2f allocations per refused block, want at most 1 (the error)", m.Name(), per)
			}
			t.Logf("%s: %d predicted, %d refused", m.Name(), len(accepted[k]), len(refused[k]))
		}
	}
}

// simModels returns the simulator-backed predictors.
func simModels(cpu *uarch.CPU) []models.Predictor {
	return []models.Predictor{models.NewIACA(cpu), models.NewLLVMMCA(cpu)}
}

// BenchmarkDerivedPrediction times the simulator-backed models' derived
// predictions over the mixed-category block set; ns/op divided by
// blocksPerOp is the per-block cost.
func BenchmarkDerivedPrediction(b *testing.B) {
	blocks := mixedBlockSet()
	for _, m := range simModels(uarch.Haswell()) {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, blk := range blocks {
					if _, err := m.Predict(blk); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(blocks)), "blocksPerOp")
		})
	}
}

// TestPredictMixedSimModelsAllocs pins the simulator-backed models'
// Predict over the mixed block set: at most two allocations per block.
// Predict resolves the block into a pooled scratch and predicts on it, so
// a warm pool allocates nothing; TestPredictResolvedAllocs pins the path
// without the pool.
func TestPredictMixedSimModelsAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	blocks := mixedBlockSet()
	for _, m := range simModels(uarch.Haswell()) {
		allocs := testing.AllocsPerRun(20, func() {
			for _, b := range blocks {
				if _, err := m.Predict(b); err != nil {
					t.Fatal(err)
				}
			}
		})
		if per := allocs / float64(len(blocks)); per > 2 {
			t.Errorf("%s makes %.2f allocations per block, want at most 2", m.Name(), per)
		}
	}
}

// TestRetargetTimingAllocs pins the timing half of every key after a
// block's first: with the functional pass done and its graph built and
// caches warmed once, moving the machine to another µarch and timing the
// block there — Retarget, the graph retimed, the warm-up restored (or
// walked again on Ice Lake's geometry), the one-pass unroll pair —
// allocates nothing.
func TestRetargetTimingAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are meaningless under -race")
	}
	block, _ := x86.ParseBlock(harness.CRCBlockText, x86.SyntaxATT)
	n := len(block.Insts)
	lo, hi := profiler.DefaultOptions().UnrollFactors(n)
	var insts []x86.Inst
	for i := 0; i < hi; i++ {
		insts = append(insts, block.Insts...)
	}
	hsw := uarch.Haswell()
	keys := []*uarch.CPU{hsw.Perturbed(), uarch.Skylake(), uarch.IceLake(), hsw}
	ents := make([][]*memo.PreparedInst, len(keys))
	for k, cpu := range keys {
		for i := range block.Insts {
			ents[k] = append(ents[k], memo.For(cpu).Prepared(&block.Insts[i]))
		}
	}
	m := machine.New(hsw, 1)
	prog, err := m.PrepareUnrolled(insts, n)
	if err != nil {
		t.Fatal(err)
	}
	frame := m.AS.NewPhysPage()
	frame.Fill(profiler.InitPattern)
	st := &exec.State{FTZ: true, DAZ: true}
	st.InitRegisters(profiler.InitPattern)
	steps, err := m.ExecuteMonitored(prog, st, func(f *vm.Fault) bool {
		m.AS.Map(f.Addr, frame)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	m.WarmCaches(prog, steps)
	m.TimeGraphPair(m.PrepareGraph(prog, steps), n*lo)
	before := m.Work()
	allocs := testing.AllocsPerRun(20, func() {
		for k, cpu := range keys {
			m.Retarget(cpu, ents[k])
			g := m.PrepareGraph(prog, steps)
			m.WarmCaches(prog, steps)
			if _, _, ok := m.TimeGraphPair(g, n*lo); !ok {
				t.Fatalf("%s: the unroll pair did not derive", cpu.Name)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("timing %d further keys makes %.0f allocations, want 0", len(keys), allocs)
	}
	if w := m.Work().Since(before); w.Builds != 0 || w.Restores == 0 {
		t.Fatalf("further keys %+v: want every graph retimed and warm-ups restored", w)
	}
}

func BenchmarkPredictIthemal(b *testing.B) {
	block, _ := x86.ParseBlock(harness.CRCBlockText, x86.SyntaxATT)
	m := ithemal.New(32, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(block); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	block, _ := x86.ParseBlock(harness.CRCBlockText, x86.SyntaxATT)
	raw, err := block.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x86.DecodeBlock(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineSimulation times the scheduling loop alone: one timed
// run of the CRC block unrolled 16 times over its prepared graph.
func BenchmarkPipelineSimulation(b *testing.B) {
	cpu := uarch.Haswell()
	block, _ := x86.ParseBlock(harness.CRCBlockText, x86.SyntaxATT)
	m := machine.New(cpu, 1)
	var insts []x86.Inst
	for i := 0; i < 16; i++ {
		insts = append(insts, block.Insts...)
	}
	prog, err := m.Prepare(insts)
	if err != nil {
		b.Fatal(err)
	}
	frame := m.AS.NewPhysPage()
	frame.Fill(0x12345600)
	var steps []exec.Step
	for {
		st := &exec.State{FTZ: true, DAZ: true}
		st.InitRegisters(0x12345600)
		var runErr error
		steps, runErr = m.Execute(prog, st)
		if runErr == nil {
			break
		}
		f, ok := runErr.(*vm.Fault)
		if !ok {
			b.Fatal(runErr)
		}
		m.AS.Map(f.Addr, frame)
	}
	g := m.PrepareGraph(prog, steps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TimeGraph(g, machine.Config{})
	}
	b.ReportMetric(float64(len(steps)), "dynInsts")
}

// BenchmarkTimedRunCorpus measures the timing layer alone: the timed pair
// run — the high unroll factor and, from the same pass, its low prefix —
// of every block of a small generated corpus on xval's six keys (the three
// paper µarchs, stock and perturbed), on the warm caches the profiler
// times on. "timed" is the route every measurement takes, the in-order
// pass wherever it is exact; "event" is the event scheduler alone. One op
// readies one block on one key, as a measurement does, and times it four
// times; ns/µop counts only the timed runs, per µop of the high run.
func BenchmarkTimedRunCorpus(b *testing.B) {
	const reps = 4
	type key struct {
		cpu *uarch.CPU
		m   *machine.Machine
	}
	var keys []key
	for _, cpu := range uarch.All() {
		for _, c := range []*uarch.CPU{cpu, cpu.Perturbed()} {
			keys = append(keys, key{c, machine.New(c, 1)})
		}
	}
	opts := profiler.DefaultOptions()
	// prepare readies block r on key k as the profiler does: the
	// high-factor program run once with every faulting page mapped onto
	// one pattern-filled frame, its graph built and the caches warm. It
	// returns the graph and the prefix length, or ok false if the block
	// does not run there.
	prepare := func(r corpus.Record, k key) (g *pipeline.Graph, nLo int, ok bool) {
		n := len(r.Block.Insts)
		lo, hi := opts.UnrollFactors(n)
		insts := make([]x86.Inst, 0, n*hi)
		for u := 0; u < hi; u++ {
			insts = append(insts, r.Block.Insts...)
		}
		m := k.m
		m.Reset()
		p, err := m.PrepareUnrolled(insts, n)
		if err != nil {
			return nil, 0, false
		}
		var frame *vm.PhysPage
		st := &exec.State{FTZ: true, DAZ: true}
		st.InitRegisters(profiler.InitPattern)
		steps, err := m.ExecuteMonitored(p, st, func(f *vm.Fault) bool {
			if !vm.ValidUserAddress(f.Addr) {
				return false
			}
			if frame == nil {
				frame = m.AS.NewPhysPage()
				frame.Fill(profiler.InitPattern)
			}
			m.AS.Map(f.Addr, frame)
			return true
		})
		if err != nil {
			return nil, 0, false
		}
		g = m.PrepareGraph(p, steps)
		m.WarmCaches(p, steps)
		return g, n * lo, true
	}
	type job struct{ rec, key int }
	var jobs []job
	recs := corpus.GenerateAll(0.001, 7)
	for ri, r := range recs {
		for ki, k := range keys {
			if _, _, ok := prepare(r, k); ok {
				jobs = append(jobs, job{ri, ki})
			}
		}
	}
	for _, path := range []struct {
		name string
		time func(*uarch.CPU, *pipeline.Graph, int, *cache.Cache, *cache.Cache, pipeline.Config) (pipeline.Counters, pipeline.Counters, bool)
	}{{"timed", pipeline.SimulateGraphPair}, {"event", pipeline.SimulateEvent}} {
		b.Run(path.name, func(b *testing.B) {
			var nanos time.Duration
			var uops uint64
			for i := 0; i < b.N; i++ {
				j := jobs[i%len(jobs)]
				k := keys[j.key]
				g, nLo, _ := prepare(recs[j.rec], k)
				start := time.Now()
				for r := 0; r < reps; r++ {
					hi, _, _ := path.time(k.cpu, g, nLo, k.m.L1I, k.m.L1D, pipeline.Config{})
					uops += hi.Uops
				}
				nanos += time.Since(start)
			}
			b.ReportMetric(float64(nanos)/float64(max(uops, 1)), "ns/µop")
		})
	}
}
