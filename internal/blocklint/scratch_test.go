package blocklint

import (
	"os"
	"reflect"
	"runtime"
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
			wantHex[i] = freshHex(cpu, opts, h)
		}
		wantBlock := make([]*Report, len(blocks))
		for i, b := range blocks {
			wantBlock[i] = New(cpu, opts).analyze(new(scratch), b, nil, "")
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

// freshHex is the report of a fresh analyzer on a fresh scratch, which
// has no earlier pass to reuse.
func freshHex(cpu *uarch.CPU, opts profiler.Options, h string) *Report {
	return New(cpu, opts).analyzeHex(new(scratch), h)
}

// reachesPass reports whether analyzing rep's row ran (or reused) a
// functional pass: the row decodes, and every instruction encodes and
// describes.
func reachesPass(rep *Report) bool {
	for _, d := range rep.Diags {
		switch d.Code {
		case CodeNoDecode, CodeEmpty, CodeNoEncode, CodeUnsupported:
			return false
		}
	}
	return true
}

// TestAnalyzeReuseAcrossArchs analyzes each row on one µarch and then, on
// the same scratch, on another: the second report, which reuses the first
// call's functional pass whenever both calls reach one, must equal a fresh
// analyzer's. The rows include AVX2 blocks Ivy Bridge refuses, so some
// pairs reach the pass on one side only. Analyzers whose options differ
// must not reuse each other's pass.
func TestAnalyzeReuseAcrossArchs(t *testing.T) {
	scale := 0.002
	if testing.Short() || raceEnabled {
		scale = 0.001
	}
	hexes, _ := scratchRows(t, scale)
	opts := profiler.DefaultOptions()
	cpus := uarch.Extended()
	want := make([][]*Report, len(cpus))
	for ci, cpu := range cpus {
		for _, h := range hexes {
			want[ci] = append(want[ci], freshHex(cpu, opts, h))
		}
	}
	var wantHits, wantRuns int64
	hits0, runs0 := passCounts()
	for ai, cpuA := range cpus {
		for bi, cpuB := range cpus {
			if ai == bi {
				continue
			}
			a, b := New(cpuA, opts), New(cpuB, opts)
			for i, h := range hexes {
				s := new(scratch)
				a.analyzeHex(s, h)
				if got := b.analyzeHex(s, h); !reflect.DeepEqual(got, want[bi][i]) {
					t.Errorf("%s after %s: AnalyzeHex(%s) differs from a fresh analyzer's report", cpuB.Name, cpuA.Name, h)
				}
				reachA, reachB := reachesPass(want[ai][i]), reachesPass(want[bi][i])
				switch {
				case reachA && reachB:
					wantRuns++
					wantHits++
				case reachA || reachB:
					wantRuns++
				}
			}
		}
	}
	hits, runs := passCounts()
	if hits-hits0 != wantHits || runs-runs0 != wantRuns {
		t.Errorf("passes reused %d and run %d, want %d and %d", hits-hits0, runs-runs0, wantHits, wantRuns)
	}
	if wantHits == 0 {
		t.Fatal("no call reused a pass")
	}

	other := opts
	other.FilterMisaligned, other.MaxFaults = false, 1
	for _, cpu := range cpus {
		x, y := New(cpu, opts), New(cpu, other)
		for _, h := range hexes {
			wantY := freshHex(cpu, other, h)
			hits0, _ := passCounts()
			s := new(scratch)
			x.analyzeHex(s, h)
			if got := y.analyzeHex(s, h); !reflect.DeepEqual(got, wantY) {
				t.Errorf("%s: AnalyzeHex(%s) with other options differs from a fresh analyzer's report", cpu.Name, h)
			}
			if hits, _ := passCounts(); hits != hits0 {
				t.Fatalf("%s: AnalyzeHex(%s) with other options reused a pass", cpu.Name, h)
			}
		}
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

// allocRows returns the rows the allocation pins measure: rows whose
// reports under every analyzer of as carry no diagnostic, with the total
// count of those reports' own objects.
func allocRows(t *testing.T, as ...*Analyzer) (hexes []string, objects []int) {
	t.Helper()
	all, _ := scratchRows(t, 0.002)
	lowercase := 0
rows:
	for _, h := range all {
		own := 0
		for _, a := range as {
			rep := a.AnalyzeHex(h)
			if len(rep.Diags) > 0 {
				continue rows
			}
			own += reportObjects(rep, h)
		}
		hexes, objects = append(hexes, h), append(objects, own)
		if h == strings.ToLower(h) {
			lowercase++
		}
	}
	if len(hexes) < 100 || lowercase == len(hexes) {
		t.Fatalf("pinned %d rows (%d lowercase), want at least 100 and one with uppercase hex", len(hexes), lowercase)
	}
	t.Logf("%d rows pinned", len(hexes))
	return hexes, objects
}

// TestAnalyzeHexAllocs pins the static path's working memory when the
// functional pass runs: on warm analyzers, AnalyzeHex of a row that yields
// no diagnostic allocates only the report's own objects. The pass, its
// outcome and the faults the monitor repairs allocate nothing. Two
// analyzers whose options differ take turns on the row, so every call
// runs its own pass.
func TestAnalyzeHexAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	opts := profiler.DefaultOptions()
	other := opts
	other.MaxFaults++
	a, b := New(uarch.Haswell(), opts), New(uarch.Haswell(), other)
	hexes, objects := allocRows(t, a, b)
	for i, h := range hexes {
		_, runs0 := passCounts()
		allocs := testing.AllocsPerRun(10, func() { a.AnalyzeHex(h); b.AnalyzeHex(h) })
		if _, runs := passCounts(); runs-runs0 != 2*11 {
			t.Fatalf("%s: %d of 22 calls ran a pass, want all", h, runs-runs0)
		}
		if int(allocs) != objects[i] {
			t.Errorf("%s: two AnalyzeHex calls make %.0f allocations, want the reports' %d", h, allocs, objects[i])
		}
	}
}

// TestAnalyzeHexReuseAllocs pins the reuse path: AnalyzeHex of a row on
// one µarch right after another allocates exactly the report's objects.
func TestAnalyzeHexReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	// One P, as in AllocsPerRun, so the calls before it put their
	// scratch where the measured calls look first.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := profiler.DefaultOptions()
	a, b := New(uarch.Haswell(), opts), New(uarch.Skylake(), opts)
	hexes, objects := allocRows(t, a, b)
	for i, h := range hexes {
		b.AnalyzeHex(h)
		hits0, _ := passCounts()
		allocs := testing.AllocsPerRun(10, func() { a.AnalyzeHex(h); b.AnalyzeHex(h) })
		if hits, _ := passCounts(); hits-hits0 != 2*11 {
			t.Fatalf("%s: %d of 22 calls reused a pass, want all", h, hits-hits0)
		}
		if int(allocs) != objects[i] {
			t.Errorf("%s: two AnalyzeHex calls make %.0f allocations, want the reports' %d", h, allocs, objects[i])
		}
	}
}
