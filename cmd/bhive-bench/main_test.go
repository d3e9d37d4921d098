package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testScale shrinks every workload to a corpus scale of about 0.002.
const testScale = 0.03

// benchmarkSpec is the part of the repository's BENCHMARK.json the test
// checks the program against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesProgram(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestBenchInProcess runs every workload in-process, small: two untraced
// repeats and a traced run each.
func TestBenchInProcess(t *testing.T) {
	spec := readSpec(t)
	dir := t.TempDir()
	o := benchOptions{seed: 7, scale: testScale, trace: true, minRepeats: 2}
	repeat := func(w workload) repeatFunc {
		return func(traced bool) (*childResult, error) {
			return runChild(childConfig{workload: w.name, seed: o.seed, scale: o.scale, out: dir,
				traced: traced, ledgerBlocks: 20})
		}
	}
	rs, err := bench(workloads, o, repeat, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range workloads {
		wr := rs.Workloads[w.name]
		if len(wr.Problems) > 0 || wr.Failed != 0 {
			t.Errorf("%s: %d failed: %v", w.name, wr.Failed, wr.Problems)
		}
		if wr.Repeats != 2 {
			t.Errorf("%s: %d repeats, want 2", w.name, wr.Repeats)
		}
		if wr.Pinned == "" {
			t.Errorf("%s: no digest pinned for seed 7 at corpus scale %g", w.name, wr.CorpusScale)
		}
		for kind, defs := range map[string][]metricDef{"end_to_end": spec.EndToEnd, "per_layer": spec.PerLayer} {
			for _, d := range defs {
				set := wr.metric(d.Name)
				if set == nil {
					t.Errorf("%s: %s metric %s not emitted", w.name, kind, d.Name)
					continue
				}
				_, med, _ := set.quartiles()
				if set.Unit == "" || math.IsNaN(med) || math.IsInf(med, 0) {
					t.Errorf("%s: %s = %v %q, want a finite value with a unit", w.name, d.Name, med, set.Unit)
				}
			}
		}
		checkSpans(t, filepath.Join(dir, w.name+".spans.jsonl"))
	}
	if a, b := rs.Workloads["journal"].Digest, rs.Workloads["table5"].Digest; a != b {
		t.Errorf("journal digest %s differs from table5's %s", a, b)
	}
	if s := summarize(rs, false); !s.Correct || s.Failed != 0 || s.Attempted == 0 {
		t.Errorf("summary %+v, want correct", s)
	}
}

// checkSpans asserts a span file is well formed: ids are unique, every
// parent exists, and each child lies inside its parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int]span{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, dup := byID[s.ID]; dup || s.ID <= 0 {
			t.Fatalf("%s: bad or repeated span id %d", path, s.ID)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d %s ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d %s has missing parent %d", path, s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d %s [%d,%d] is outside its parent %s [%d,%d]",
				path, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		if p.Name == "block" && s.Trace != p.Trace {
			t.Errorf("%s: span %d %s has trace %d, its block %d", path, s.ID, s.Name, s.Trace, p.Trace)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	mk := func(name, cpu string, speed float64) string {
		host := currentHost()
		host.CPU = cpu
		rs := &results{Host: host, Seed: 7, Scale: 1, Workloads: map[string]*workloadResult{
			"table5": {Metrics: []*sampleSet{
				{metricDef: endToEnd[0], Samples: []float64{1000 * speed, 1010 * speed, 990 * speed}},
				{metricDef: endToEnd[1], Samples: []float64{0.5, 0.51, 0.49}},
			}},
		}}
		path := filepath.Join(dir, name+".json")
		if err := writeResults(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := endToEnd[0].Bound
	drop := 1 - (bound + 0.05) // a throughput drop just past the bound
	a, same, slower := mk("a", "cpu", 1), mk("same", "cpu", 1), mk("slower", "cpu", drop)
	elsewhere := mk("elsewhere", "another cpu", drop)

	row := func(args ...string) (string, int) {
		var out bytes.Buffer
		code := run(append([]string{"-compare"}, args...), &out, io.Discard)
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, endToEnd[0].Name) {
				return line, code
			}
		}
		t.Fatalf("no %s row in:\n%s", endToEnd[0].Name, out.String())
		return "", code
	}
	if line, code := row(a, same); !strings.HasSuffix(line, verdictWithin) || code != 0 {
		t.Errorf("identical inputs: %q (exit %d), want %q and exit 0", line, code, verdictWithin)
	}
	if line, code := row(a, slower); !strings.HasSuffix(line, verdictWorse) || code != 1 {
		t.Errorf("%.0f%% drop: %q (exit %d), want %q and exit 1", 100*(1-drop), line, code, verdictWorse)
	}
	if line, code := row(a, elsewhere); !strings.HasSuffix(line, verdictReport) || code != 0 {
		t.Errorf("another host: %q (exit %d), want %q and exit 0", line, code, verdictReport)
	}

	// Quartiles 1 ± 0.75·bound: a spread of 1.5 bounds.
	noisy := []float64{1 - 3*bound, 1, 1, 1 + 3*bound}
	if v := verdict(endToEnd[0], noisy, noisy); v != verdictUnresolved {
		t.Errorf("spread wider than the bound: %q, want %q", v, verdictUnresolved)
	}
}
