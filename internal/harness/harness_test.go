package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// testSuite is shared across tests: building measurements is the expensive
// part, so keep the scale small.
func testSuite(t *testing.T) *Suite {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Scale = 0.002
	return New(cfg)
}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %s lacks cell %d,%d", tab.ID, row, col)
	}
	return tab.Rows[row][col]
}

func pct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return v
}

func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad number %q", s)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	s := testSuite(t)
	tab := s.Table1()
	if len(tab.Rows) != 3 {
		t.Fatal("three ablation rows")
	}
	none, mapped, full := pct(t, cell(t, tab, 0, 1)), pct(t, cell(t, tab, 1, 1)), pct(t, cell(t, tab, 2, 1))
	if !(none < mapped && mapped < full) {
		t.Fatalf("ablation must be monotone: %v %v %v", none, mapped, full)
	}
	if none > 30 || mapped < 80 || full < 88 {
		t.Fatalf("rates off the paper's regime: %v %v %v", none, mapped, full)
	}
}

func TestTable2Shape(t *testing.T) {
	s := testSuite(t)
	tab := s.Table2()
	if len(tab.Rows) != 5 {
		t.Fatal("five optimization rows")
	}
	if cell(t, tab, 0, 1) != "Crashed" {
		t.Fatalf("row 1 must crash, got %q", cell(t, tab, 0, 1))
	}
	r2, r3, r4, r5 := num(t, cell(t, tab, 1, 1)), num(t, cell(t, tab, 2, 1)),
		num(t, cell(t, tab, 3, 1)), num(t, cell(t, tab, 4, 1))
	if !(r2 > r3 && r3 > r4 && r4 >= r5) {
		t.Fatalf("rows must decrease monotonically: %v %v %v %v", r2, r3, r4, r5)
	}
	if r3 < 8*r4 {
		t.Fatalf("gradual underflow must dominate row 3: %v vs %v", r3, r4)
	}
	// Row 2 has data-cache misses; row 3 does not.
	if num(t, cell(t, tab, 1, 2)) == 0 {
		t.Fatal("distinct physical pages must miss")
	}
	if num(t, cell(t, tab, 2, 2)) != 0 {
		t.Fatal("single physical page must not miss")
	}
	// Row 4 (naive 100x unroll) overflows the I-cache; row 5 does not.
	if num(t, cell(t, tab, 3, 3)) == 0 {
		t.Fatal("naive unroll of the big block must miss in L1I")
	}
	if num(t, cell(t, tab, 4, 3)) != 0 {
		t.Fatal("derived method must avoid I-cache misses")
	}
}

func TestTable3Counts(t *testing.T) {
	s := testSuite(t)
	tab := s.Table3()
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "Total" || last[2] != "358561" {
		t.Fatalf("full-scale total: %v", last)
	}
}

func TestTable4AndExamples(t *testing.T) {
	s := testSuite(t)
	tab := s.Table4()
	if len(tab.Rows) != 6 {
		t.Fatal("six categories")
	}
	// Category-2 (purely vector) must be among the smallest.
	c2 := num(t, cell(t, tab, 1, 2))
	c6 := num(t, cell(t, tab, 5, 2))
	if c2 >= c6 {
		t.Fatalf("category-2 (%v) should be rarer than category-6 (%v)", c2, c6)
	}
	out := s.FigExamples()
	if !strings.Contains(out, "Category-2") {
		t.Fatal("examples figure must cover category 2")
	}
}

func TestTable5Shape(t *testing.T) {
	s := testSuite(t)
	tab, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 3 µarch x 4 analytical models
		t.Fatalf("12 rows, got %d", len(tab.Rows))
	}
	get := func(cpu, model string) float64 {
		for _, row := range tab.Rows {
			if row[0] == cpu && row[1] == model {
				return num(t, row[2])
			}
		}
		t.Fatalf("missing %s/%s", cpu, model)
		return 0
	}
	for _, cpu := range []string{"ivybridge", "haswell", "skylake"} {
		iaca, mca, osaca := get(cpu, "IACA"), get(cpu, "llvm-mca"), get(cpu, "OSACA")
		if !(iaca < osaca && mca < osaca) {
			t.Errorf("%s: OSACA must be worst (%v %v %v)", cpu, iaca, mca, osaca)
		}
		if iaca > 0.25 || mca > 0.30 {
			t.Errorf("%s: analytical errors out of the paper's range (%v %v)", cpu, iaca, mca)
		}
	}
	// llvm-mca degrades on Skylake relative to Haswell (the stale model).
	if get("skylake", "llvm-mca") <= get("haswell", "llvm-mca") {
		t.Error("llvm-mca should be worse on Skylake")
	}
}

func TestCaseStudyShape(t *testing.T) {
	s := testSuite(t)
	tab, err := s.CaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatal("three case-study blocks")
	}
	// div block: measured ~21.6; IACA and llvm-mca vastly overpredict;
	// OSACA underpredicts.
	meas := num(t, cell(t, tab, 0, 1))
	iaca := num(t, cell(t, tab, 0, 2))
	mca := num(t, cell(t, tab, 0, 3))
	osaca := num(t, cell(t, tab, 0, 4))
	if meas < 18 || meas > 26 {
		t.Errorf("div measured %v (paper 21.62)", meas)
	}
	if iaca < 3*meas || mca < 3*meas {
		t.Errorf("div overprediction missing: %v %v vs %v", iaca, mca, meas)
	}
	if osaca >= meas {
		t.Errorf("OSACA should underpredict div: %v vs %v", osaca, meas)
	}
	// vxorps: measured ~0.25, IACA right, llvm-mca and OSACA ~1.0.
	if v := num(t, cell(t, tab, 1, 1)); v < 0.2 || v > 0.35 {
		t.Errorf("vxorps measured %v", v)
	}
	if v := num(t, cell(t, tab, 1, 3)); v < 0.9 {
		t.Errorf("llvm-mca must miss the zero idiom: %v", v)
	}
	// CRC: llvm-mca overpredicts, IACA close, OSACA fails ("-").
	if cell(t, tab, 2, 4) != "-" {
		t.Errorf("OSACA must fail on the CRC block, got %q", cell(t, tab, 2, 4))
	}
	crcMeas := num(t, cell(t, tab, 2, 1))
	crcMCA := num(t, cell(t, tab, 2, 3))
	if crcMCA <= crcMeas {
		t.Errorf("llvm-mca must overpredict the CRC block: %v vs %v", crcMCA, crcMeas)
	}
}

func TestFigScheduling(t *testing.T) {
	s := testSuite(t)
	out, err := s.FigScheduling()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "llvm-mca") || !strings.Contains(out, "IACA") {
		t.Fatal("both schedules must render")
	}
	if !strings.Contains(out, "load") {
		t.Fatal("schedules must show load µops")
	}
}

func TestFigAppsVsClusters(t *testing.T) {
	s := testSuite(t)
	tab := s.FigAppsVsClusters()
	if len(tab.Rows) != 10 {
		t.Fatalf("ten applications, got %d", len(tab.Rows))
	}
	// Every row sums to ~100%.
	for _, row := range tab.Rows {
		var sum float64
		for _, cellv := range row[1:] {
			sum += num(t, cellv)
		}
		if sum < 99 || sum > 101 {
			t.Fatalf("%s: percentages sum to %v", row[0], sum)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	s := testSuite(t)
	for _, id := range []string{"table3", "fig-examples"} {
		out, err := s.Run(id, "")
		if err != nil || out == "" {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if _, err := s.Run("nope", ""); err == nil {
		t.Fatal("unknown experiment must error")
	}
	if _, err := s.Run("fig-app-err", "bogus"); err == nil {
		t.Fatal("unknown uarch must error")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows: [][]string{{"1", "hello,world"}}}
	if !strings.Contains(tab.Render(), "hello") {
		t.Fatal("render")
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"hello,world"`) {
		t.Fatalf("csv escaping: %q", csv)
	}
}

func TestFigClusterErrVectorizedHard(t *testing.T) {
	if testing.Short() {
		t.Skip("full per-cluster sweep")
	}
	s := testSuite(t)
	tab, err := s.FigClusterErr(uarch.Haswell())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatal("six categories")
	}
}

func TestTable6AndGoogleBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("google corpora sweep")
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.001
	s := New(cfg)

	tab, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 { // 2 apps x 3 analytical models (no Ithemal, no OSACA)
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		avg, tau := num(t, row[2]), num(t, row[4])
		if avg <= 0 || avg > 0.6 {
			t.Errorf("%s/%s: avg error %v", row[0], row[1], avg)
		}
		if tau < 0.4 {
			t.Errorf("%s/%s: tau %v too low (paper ~0.77)", row[0], row[1], tau)
		}
	}

	fig, err := s.FigGoogleBlocks()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 2 {
		t.Fatal("two applications")
	}
	// Load-dominated: categories 3+6 carry most of the runtime weight.
	for _, row := range fig.Rows {
		loadShare := num(t, row[3]) + num(t, row[6])
		if loadShare < 35 {
			t.Errorf("%s: load-dominated share %.1f%% too low", row[0], loadShare)
		}
	}
}

func TestBoundCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.001
	s := New(cfg)

	hsw := uarch.Haswell()
	tables, err := s.BoundCheck([]*uarch.CPU{hsw})
	if err != nil {
		t.Fatal(err)
	}
	// Zero violations expected, so only the summary table is present.
	if len(tables) != 1 || tables[0].ID != "boundcheck" {
		t.Fatalf("expected the summary table alone, got %d tables", len(tables))
	}
	tab := tables[0]
	if len(tab.Rows) != 1 {
		t.Fatalf("one row per µarch, got %d", len(tab.Rows))
	}
	row := tab.Rows[0]
	if row[0] != "haswell" {
		t.Fatalf("row for %q", row[0])
	}
	blocks, checked := num(t, row[1]), num(t, row[2])
	if checked < 50 || checked > blocks {
		t.Fatalf("checked %v of %v blocks", checked, blocks)
	}
	// The verdict histogram partitions the checked blocks.
	dep, port, fe := num(t, row[4]), num(t, row[5]), num(t, row[6])
	if dep+port+fe != checked {
		t.Fatalf("verdicts %v+%v+%v != checked %v", dep, port, fe, checked)
	}
	if v := num(t, row[7]); v != 0 {
		t.Fatalf("%v bound violations on the generated corpus", v)
	}
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "total violations: 0") {
		t.Fatalf("summary notes must carry the smoke-greppable total: %v", tab.Notes)
	}

	// The crosscheck is reachable through the structured runner.
	res, err := s.RunStructured(BoundCheckID, "haswell")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 || !strings.Contains(res.Text, "boundcheck") {
		t.Fatal("RunStructured must render the boundcheck tables")
	}
}

// TestBoundCheckOnePassPerBlock: the crosscheck measures block-major, so
// one functional pass per block serves every µarch it checks.
func TestBoundCheckOnePassPerBlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.001
	met := new(profiler.Metrics)
	cfg.Metrics = met
	s := New(cfg)
	cpus := uarch.Extended()
	if _, err := s.BoundCheck(cpus); err != nil {
		t.Fatal(err)
	}
	snap := met.Snapshot()
	blocks := uint64(len(s.Records()))
	if snap.Passes == 0 || snap.Passes > blocks {
		t.Fatalf("%d functional passes for %d blocks, want between 1 and one per block", snap.Passes, blocks)
	}
	if snap.Profiled != uint64(len(cpus))*blocks {
		t.Fatalf("%d measurements, want %d blocks on %d µarchs", snap.Profiled, blocks, len(cpus))
	}
	if snap.PassServed <= snap.Passes {
		t.Errorf("%d passes served only %d measurements of %d µarchs", snap.Passes, snap.PassServed, len(cpus))
	}
}

func TestFigLenErr(t *testing.T) {
	s := testSuite(t)
	tab, err := s.FigLenErr(uarch.Haswell())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("%d buckets", len(tab.Rows))
	}
	total := 0.0
	for _, row := range tab.Rows {
		total += num(t, row[1])
	}
	if total < 500 {
		t.Fatalf("buckets cover too few blocks: %v", total)
	}
}

// TestCrosscheckMismatchCounted is -crosscheck's failing leg: a profiled
// status the block's static report disagrees with is counted by the suite
// (CrosscheckMismatches, which bhive-eval turns into a failed run) and by
// the lane's metrics, and printed as one progress line; an agreeing
// status is neither.
func TestCrosscheckMismatchCounted(t *testing.T) {
	b, err := x86.ParseBlock("mov rax, rcx", x86.SyntaxIntel)
	if err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	met := new(profiler.Metrics)
	s := New(Config{
		Records:    []corpus.Record{{App: "t", Block: b, Freq: 1}},
		Crosscheck: true,
		Progress:   &progress,
		Metrics:    met,
	})
	lanes := []lane{s.modelLane(uarch.Haswell(), profiler.DefaultOptions(), met)}
	w := &laneWorker{s: s, lanes: lanes}
	rep := lanes[0].lint.Analyze(b)
	if rep.Predicted != profiler.StatusOK {
		t.Fatalf("static verdict %s, want ok", rep.Predicted)
	}

	w.profiled(&lanes[0], rep, b, profiler.Result{Status: profiler.StatusOK, Throughput: 1})
	if n := s.CrosscheckMismatches(); n != 0 || progress.Len() != 0 {
		t.Fatalf("an agreeing status counted %d mismatches and printed %q", n, progress.String())
	}

	got := w.profiled(&lanes[0], rep, b, profiler.Result{Status: profiler.StatusCrashed})
	if got.status != profiler.StatusCrashed {
		t.Errorf("measurement status %s, want the dynamic crashed", got.status)
	}
	if n := s.CrosscheckMismatches(); n != 1 {
		t.Fatalf("CrosscheckMismatches() = %d, want 1", n)
	}
	if snap := met.Snapshot(); snap.CrosscheckMismatch != 1 || !strings.Contains(snap.RejectHistogram(), "cross-mismatch=1") {
		t.Errorf("metrics %+v (%s), want one cross-mismatch", snap, snap.RejectHistogram())
	}
	want := "[haswell] crosscheck mismatch: 4889c8 static=ok(exact=true) dynamic=crashed\n"
	if progress.String() != want {
		t.Errorf("progress %q, want %q", progress.String(), want)
	}
}
