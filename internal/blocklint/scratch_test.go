package blocklint

import (
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"bhive/internal/corpus"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// scratchRows returns the rows the scratch tests analyze: the generated
// corpus's blocks with their canonical hex, then the example corpus, the
// handcrafted blocks, and non-canonical, uppercase and undecodable hex,
// which take roundTrip's re-decode, the hex copy and the error paths.
func scratchRows(t *testing.T, scale float64) (hexes []string, blocks []*x86.Block) {
	t.Helper()
	for _, rec := range corpus.GenerateAll(scale, 7) {
		h, err := rec.Block.Hex()
		if err != nil {
			continue
		}
		hexes = append(hexes, h)
		blocks = append(blocks, rec.Block)
	}
	f, err := os.Open(exampleCorpus)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := corpus.ReadCSVRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		hexes = append(hexes, row.Hex)
	}
	hexes = append(hexes, handcrafted...)
	return append(hexes, "488bc1", "c4e17dfec04801D8", "4889C8", "zz", "4889c8ff", ""), blocks
}

// TestAnalyzeScratchReuse runs one analyzer per µarch over the rows in
// two orders, then from several goroutines at once, and requires every
// report to equal a fresh analyzer's: no state may leak from one row to
// the next through the decode arenas, the entries, the page lists or the
// access aggregates.
func TestAnalyzeScratchReuse(t *testing.T) {
	scale := 0.01
	if testing.Short() || raceEnabled {
		scale = 0.001
	}
	hexes, blocks := scratchRows(t, scale)
	opts := profiler.DefaultOptions()
	for _, cpu := range uarch.Extended() {
		wantHex := make([]*Report, len(hexes))
		for i, h := range hexes {
			wantHex[i] = New(cpu, opts).AnalyzeHex(h)
		}
		wantBlock := make([]*Report, len(blocks))
		for i, b := range blocks {
			wantBlock[i] = New(cpu, opts).Analyze(b)
		}
		a := New(cpu, opts)
		check := func(order string, i int) {
			if i < len(hexes) {
				if got := a.AnalyzeHex(hexes[i]); !reflect.DeepEqual(got, wantHex[i]) {
					t.Errorf("%s %s: AnalyzeHex(%s) differs from a fresh analyzer's report", cpu.Name, order, hexes[i])
				}
			}
			if i < len(blocks) {
				if got := a.Analyze(blocks[i]); !reflect.DeepEqual(got, wantBlock[i]) {
					t.Errorf("%s %s: Analyze of block %d differs from a fresh analyzer's report", cpu.Name, order, i)
				}
			}
		}
		rows := max(len(hexes), len(blocks))
		for i := 0; i < rows; i++ {
			check("forward", i)
		}
		for i := rows - 1; i >= 0; i-- {
			check("backward", i)
		}
		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < rows; i += workers {
					check("concurrent", i)
				}
			}()
		}
		wg.Wait()
	}
}

// reportObjects counts the heap objects a report without diagnostics
// owns: itself, its facts and their non-nil slices, its bounds, and its
// hex unless it is the input string.
func reportObjects(rep *Report, input string) int {
	n := 1
	if f := rep.Facts; f != nil {
		n++
		for _, set := range []bool{f.LoopCarried != nil, f.DefUse != nil, f.Mem != nil} {
			if set {
				n++
			}
		}
	}
	if rep.Bounds != nil {
		n++
	}
	if rep.Hex != "" && unsafe.StringData(rep.Hex) != unsafe.StringData(input) {
		n++
	}
	return n
}

// TestAnalyzeHexAllocs pins the static path's working memory: on a warm
// analyzer, AnalyzeHex of a row that yields no diagnostic allocates only
// the report's own objects and the functional pass's: its Pass, which
// escapes to the profiler's callback, and one *vm.Fault for each page the
// monitor maps.
func TestAnalyzeHexAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	hexes, _ := scratchRows(t, 0.002)
	a := New(uarch.Haswell(), profiler.DefaultOptions())
	var pinned, lowercase int
	for _, h := range hexes {
		rep := a.AnalyzeHex(h)
		if len(rep.Diags) > 0 {
			continue
		}
		pinned++
		if h == strings.ToLower(h) {
			lowercase++
		}
		b, err := x86.BlockFromHex(h)
		if err != nil {
			t.Fatal(err)
		}
		var pages int
		a.prof.Functional(b, func(pass *profiler.Pass) { pages = pass.PagesMapped })
		own := reportObjects(rep, h)
		allocs := testing.AllocsPerRun(10, func() { a.AnalyzeHex(h) })
		if want := own + 1 + pages; int(allocs) > want {
			t.Errorf("%s: AnalyzeHex makes %.0f allocations, want at most %d (the report's %d, the Pass and %d faults)", h, allocs, want, own, pages)
		}
	}
	if pinned < 100 || lowercase == pinned {
		t.Fatalf("pinned %d rows (%d lowercase), want at least 100 and one with uppercase hex", pinned, lowercase)
	}
	t.Logf("%d rows pinned", pinned)
}
