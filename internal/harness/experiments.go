package harness

import (
	"fmt"
	"math"
	"strings"

	"bhive/internal/classify"
	"bhive/internal/corpus"
	"bhive/internal/models"
	"bhive/internal/profiler"
	"bhive/internal/stats"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// Table1 reproduces the measurement-technique ablation (Table I): the
// fraction of the suite successfully profiled as each technique is added.
func (s *Suite) Table1() *Table {
	hsw := uarch.Haswell()
	rows := []struct {
		name string
		opts profiler.Options
	}{
		{"None", profiler.BaselineOptions()},
		{"Mapping all accessed pages", profiler.MappingOptions()},
		{"More intelligent unrolling", profiler.DefaultOptions()},
	}
	t := &Table{
		ID:     "table1",
		Title:  "Ablation: percent of basic blocks profiled (paper: 16.65 / 91.28 / 94.24)",
		Header: []string{"(Additional) Technique", "Percent of Basic Blocks Profiled"},
	}
	for _, r := range rows {
		meas := s.profileAll(hsw, r.opts, s.recs)
		ok := 0
		for i := range meas {
			if meas[i].status == profiler.StatusOK {
				ok++
			}
		}
		t.Rows = append(t.Rows, []string{
			r.name, fmt.Sprintf("%.2f%%", 100*float64(ok)/float64(len(meas))),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("suite scale %.3f (%d blocks)", s.cfg.Scale, len(s.recs)))
	return t
}

// Table2 reproduces the per-block ablation (Table II): the sample
// TensorFlow-style block measured as each optimization is applied.
func (s *Suite) Table2() *Table {
	hsw := uarch.Haswell()
	block := SampleTFBlock()

	t := &Table{
		ID:    "table2",
		Title: "Measured throughput of the sample block per optimization (paper: Crashed / 6377.0 / 2273.7 / 65.0 / 59.0)",
		Header: []string{"(Additional) Optimizations", "Measured Throughput",
			"L1 D-Cache Misses", "L1 I-Cache Misses"},
	}

	type cfg struct {
		name    string
		opts    profiler.Options
		derived bool
	}
	base := profiler.BaselineOptions()

	mapped := base
	mapped.InitRegisters = true
	mapped.MapPages = true

	single := mapped
	single.SinglePhysPage = true

	ftz := single
	ftz.DisableSubnormals = true

	rows := []cfg{
		{"None", base, false},
		{"Page mapping", mapped, false},
		{"Single physical page", single, false},
		{"Disabling gradual underflow", ftz, false},
		{"Using smaller unroll factor", ftz, true},
	}

	for _, r := range rows {
		p := profiler.New(hsw, r.opts)
		if r.derived {
			u1, u2 := 4, 8
			c1, err1 := p.MeasureRaw(block, u1)
			c2, err2 := p.MeasureRaw(block, u2)
			if err1 != nil || err2 != nil {
				t.Rows = append(t.Rows, []string{r.name, "Crashed", "N/A", "N/A"})
				continue
			}
			tp := float64(c2.Cycles-c1.Cycles) / float64(u2-u1)
			t.Rows = append(t.Rows, []string{r.name,
				fmt.Sprintf("%.1f", tp),
				fmt.Sprintf("%d", c2.L1DReadMisses+c2.L1DWriteMisses),
				fmt.Sprintf("%d", c2.L1IMisses)})
			continue
		}
		ctr, err := p.MeasureRaw(block, r.opts.NaiveUnroll)
		if err != nil {
			t.Rows = append(t.Rows, []string{r.name, "Crashed", "N/A", "N/A"})
			continue
		}
		t.Rows = append(t.Rows, []string{r.name,
			fmt.Sprintf("%.1f", float64(ctr.Cycles)/float64(r.opts.NaiveUnroll)),
			fmt.Sprintf("%d", ctr.L1DReadMisses+ctr.L1DWriteMisses),
			fmt.Sprintf("%d", ctr.L1IMisses)})
	}
	return t
}

// Table3 reproduces the source-application table (Table III).
func (s *Suite) Table3() *Table {
	t := &Table{
		ID:     "table3",
		Title:  "Source applications of basic blocks",
		Header: []string{"Application", "Domain", "# Basic Blocks (full scale)", "# Generated"},
	}
	generated := map[string]int{}
	for i := range s.recs {
		generated[s.recs[i].App]++
	}
	total := 0
	for _, a := range corpus.Apps() {
		if !a.InTable3 {
			continue
		}
		total += a.Blocks
		t.Rows = append(t.Rows, []string{a.Name, a.Domain,
			fmt.Sprintf("%d", a.Blocks), fmt.Sprintf("%d", generated[a.Name])})
	}
	t.Rows = append(t.Rows, []string{"Total", "", fmt.Sprintf("%d", total), ""})
	t.Notes = append(t.Notes,
		"OpenSSL appears in the paper's text and figures but not its Table III; it is generated too")
	return t
}

// Table4 reproduces the category table (Table IV).
func (s *Suite) Table4() *Table {
	cls := s.classifier()
	counts := cls.Counts()
	t := &Table{
		ID:     "table4",
		Title:  "Basic block categories (LDA, K=6, alpha=1/6, beta=1/13)",
		Header: []string{"Category", "Description", "# Basic Blocks", "Extrapolated (full scale)"},
	}
	for cat := classify.Category(1); cat <= classify.NumCategories; cat++ {
		t.Rows = append(t.Rows, []string{
			cat.String(), cat.Description(),
			fmt.Sprintf("%d", counts[cat]),
			fmt.Sprintf("%.0f", float64(counts[cat])/s.cfg.Scale),
		})
	}
	t.Notes = append(t.Notes,
		"paper counts: 7710 / 1267 / 58540 / 55879 / 85208 / 121412")
	return t
}

// FigExamples renders one representative block per category (the paper's
// examples figure).
func (s *Suite) FigExamples() string {
	cls := s.classifier()
	var sb strings.Builder
	sb.WriteString("== fig-examples: example basic blocks per category ==\n")
	for cat := classify.Category(1); cat <= classify.NumCategories; cat++ {
		idx := cls.Example(cat)
		fmt.Fprintf(&sb, "--- %s (%s)\n", cat, cat.Description())
		if idx < 0 {
			sb.WriteString("(no block in this category at this scale)\n")
			continue
		}
		b := s.recs[idx].Block
		for i, in := range b.Insts {
			if i == 8 {
				fmt.Fprintf(&sb, "    ... (%d more instructions)\n", len(b.Insts)-8)
				break
			}
			fmt.Fprintf(&sb, "    %s\n", in)
		}
	}
	return sb.String()
}

// FigAppsVsClusters reproduces the per-application category breakdown.
func (s *Suite) FigAppsVsClusters() *Table {
	cls := s.classifier()
	cats := cls.Categories()

	t := &Table{
		ID:     "fig-apps-clusters",
		Title:  "Breakdown of applications by basic block categories (% of blocks)",
		Header: []string{"Application", "Cat-1", "Cat-2", "Cat-3", "Cat-4", "Cat-5", "Cat-6"},
	}
	perApp := map[string][classify.NumCategories + 1]int{}
	totals := map[string]int{}
	for i := range s.recs {
		row := perApp[s.recs[i].App]
		row[int(cats[i])]++
		perApp[s.recs[i].App] = row
		totals[s.recs[i].App]++
	}
	for _, app := range s.appNames() {
		row := []string{app}
		for cat := 1; cat <= classify.NumCategories; cat++ {
			row = append(row, fmt.Sprintf("%.1f", 100*float64(perApp[app][cat])/float64(totals[app])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table5 reproduces the overall model-error table (Table V). Its cells
// come straight from the streaming aggregates the shard pipeline fed, so
// building the table never re-walks the per-record slices.
func (s *Suite) Table5() (*Table, error) {
	t := &Table{
		ID:     "table5",
		Title:  "Overall error of evaluated models (unweighted mean relative error)",
		Header: []string{"Microarchitecture", "Model", "Average Error"},
	}
	// Measure the three µarchs block-major in one pass before their
	// prediction passes.
	if _, err := s.modelMeas(uarch.All()); err != nil {
		return nil, err
	}
	for _, cpu := range uarch.All() {
		d, err := s.data(cpu)
		if err != nil {
			return nil, err
		}
		for _, name := range d.names {
			t.Rows = append(t.Rows, []string{cpu.Name, name, overallCell(d, name)})
		}
	}
	t.Notes = append(t.Notes,
		"paper: IVB .1693/.1885/.1180/.3277, HSW .1798/.1832/.1253/.3916, SKL .1578/.2278/.1191/.3768 (IACA/llvm-mca/Ithemal/OSACA)")
	return t, nil
}

// FigAppErr reproduces the per-application error figure for one CPU
// (errors weighted by sampling frequency, as in the paper's figures).
func (s *Suite) FigAppErr(cpu *uarch.CPU) (*Table, error) {
	d, err := s.data(cpu)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig-app-err-" + cpu.Name,
		Title:  fmt.Sprintf("Per-application error on %s (frequency weighted)", cpu.Name),
		Header: append([]string{"Application"}, d.names...),
	}
	for _, app := range s.appNames() {
		row := []string{app}
		for _, name := range d.names {
			row = append(row, s.errorCell(d, name,
				func(i int) bool { return s.recs[i].App == app }, true))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// FigClusterErr reproduces the per-category error figure for one CPU.
func (s *Suite) FigClusterErr(cpu *uarch.CPU) (*Table, error) {
	d, err := s.data(cpu)
	if err != nil {
		return nil, err
	}
	cats := s.classifier().Categories()
	t := &Table{
		ID:     "fig-cluster-err-" + cpu.Name,
		Title:  fmt.Sprintf("Per-category error on %s", cpu.Name),
		Header: append([]string{"Category"}, d.names...),
	}
	for cat := classify.Category(1); cat <= classify.NumCategories; cat++ {
		row := []string{cat.String()}
		for _, name := range d.names {
			row = append(row, s.errorCell(d, name,
				func(i int) bool { return cats[i] == cat }, false))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// FigLenErr is an extension experiment the paper's source carries as a
// TODO ("compare error to basic block length"): per-model error bucketed
// by block size in instructions.
func (s *Suite) FigLenErr(cpu *uarch.CPU) (*Table, error) {
	d, err := s.data(cpu)
	if err != nil {
		return nil, err
	}
	buckets := []struct {
		name   string
		lo, hi int
	}{
		{"1-2", 1, 2}, {"3-5", 3, 5}, {"6-10", 6, 10},
		{"11-20", 11, 20}, {"21-50", 21, 50}, {"51+", 51, 1 << 30},
	}
	t := &Table{
		ID:     "fig-length-err-" + cpu.Name,
		Title:  fmt.Sprintf("Error by basic-block length on %s (extension experiment)", cpu.Name),
		Header: append([]string{"Instructions", "Blocks"}, d.names...),
	}
	for _, b := range buckets {
		keep := func(i int) bool {
			n := len(s.recs[i].Block.Insts)
			return n >= b.lo && n <= b.hi
		}
		count := 0
		for i := range s.recs {
			if keep(i) && d.meas[i].status == profiler.StatusOK {
				count++
			}
		}
		row := []string{b.name, fmt.Sprintf("%d", count)}
		for _, name := range d.names {
			row = append(row, s.errorCell(d, name, keep, false))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// CaseStudy reproduces the interesting-blocks table: measured vs predicted
// inverse throughput for the three Haswell case-study blocks.
func (s *Suite) CaseStudy() (*Table, error) {
	hsw := uarch.Haswell()
	blocks, names, err := CaseStudyBlocks()
	if err != nil {
		return nil, err
	}

	preds := models.All(hsw)
	header := []string{"Basic Block", "Measured"}
	for _, m := range preds {
		header = append(header, m.Name())
	}
	if s.cfg.TrainIthemal {
		header = append(header, "Ithemal")
	}
	t := &Table{
		ID:     "case-study",
		Title:  "Interesting basic blocks (paper: div 21.62/98.00/99.04/14.49/12.25; vxorps 0.25/0.24/1.00/0.328/1.00; crc 8.25/8.00/13.04/2.13/-)",
		Header: header,
	}

	opts := profiler.DefaultOptions()
	opts.FilterMisaligned = false // the CRC table walk occasionally splits
	prof := profiler.New(hsw, opts)

	for i, b := range blocks {
		r := prof.Profile(b)
		row := []string{names[i]}
		if r.Status == profiler.StatusOK {
			row = append(row, fmt.Sprintf("%.2f", r.Throughput))
		} else {
			row = append(row, r.Status.String())
		}
		for _, m := range preds {
			p, err := m.Predict(b)
			if err != nil {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.2f", p))
			}
		}
		if s.cfg.TrainIthemal {
			if _, err := s.data(hsw); err != nil { // ensures the model is trained
				return nil, err
			}
			m := s.ithemalModel(hsw.Name)
			p, err := m.Predict(b)
			if err != nil {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.2f", p))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// FigScheduling renders the schedules llvm-mca and IACA predict for the
// CRC block, showing the early vs late dispatch of the xorb load.
func (s *Suite) FigScheduling() (string, error) {
	hsw := uarch.Haswell()
	block, err := x86.ParseBlock(CRCBlockText, x86.SyntaxATT)
	if err != nil {
		return "", err
	}

	var sb strings.Builder
	sb.WriteString("== fig-scheduling: predicted schedules for the Gzip CRC block ==\n")
	for _, m := range []models.ScheduleTracer{models.NewLLVMMCA(hsw), models.NewIACA(hsw)} {
		name := m.(models.Predictor).Name()
		trace, err := m.Schedule(block, 4)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "--- %s\n", name)
		var minDispatch, maxComplete int64 = math.MaxInt64, 0
		for _, e := range trace {
			if e.Iteration != 2 { // a steady-state iteration
				continue
			}
			if e.Dispatch < minDispatch {
				minDispatch = e.Dispatch
			}
			if e.Complete > maxComplete {
				maxComplete = e.Complete
			}
		}
		for _, e := range trace {
			if e.Iteration != 2 {
				continue
			}
			bar := strings.Repeat(" ", int(e.Dispatch-minDispatch)) +
				strings.Repeat("=", int(e.Complete-e.Dispatch))
			fmt.Fprintf(&sb, "%-42s [cycle %2d] %s\n", e.Inst+" ("+e.Uop+")", e.Dispatch-minDispatch, bar)
		}
		fmt.Fprintf(&sb, "iteration span: %d cycles\n", maxComplete-minDispatch)
	}
	sb.WriteString("note: llvm-mca dispatches the xorb load late (fused with the ALU op); IACA hoists it.\n")
	return sb.String(), nil
}

// googleData profiles and predicts one Google workload on Haswell.
type googleResult struct {
	name     string
	measured []float64
	weights  []uint64
	preds    map[string][]float64
	names    []string
	cats     []classify.Category
}

func (s *Suite) googleData() ([]*googleResult, error) {
	hsw := uarch.Haswell()

	// Classify the case-study blocks with an LDA fit over the union of
	// the open-source corpus and the Google blocks — one classification
	// pipeline over all collected blocks, as in the paper.
	apps := corpus.GoogleApps()
	appRecs := make([][]corpus.Record, len(apps))
	blocks := make([]*x86.Block, 0, len(s.recs))
	for i := range s.recs {
		blocks = append(blocks, s.recs[i].Block)
	}
	offsets := make([]int, len(apps))
	for ai, app := range apps {
		recs := app.Generate(s.cfg.Scale, s.cfg.Seed)
		// "the 100,000 most frequently executed basic blocks"
		recs = corpus.TopByFreq(recs, len(recs))
		appRecs[ai] = recs
		offsets[ai] = len(blocks)
		for i := range recs {
			blocks = append(blocks, recs[i].Block)
		}
	}
	opts := classify.DefaultOptions()
	opts.Seed = s.cfg.Seed
	cls := classify.Fit(hsw, blocks, opts)

	var out []*googleResult
	for ai, app := range apps {
		recs := appRecs[ai]
		meas := s.profileAll(hsw, profiler.DefaultOptions(), recs)

		preds := []models.Predictor{models.NewIACA(hsw), models.NewLLVMMCA(hsw), models.NewFacile(hsw)}
		if s.cfg.TrainIthemal {
			if _, err := s.data(hsw); err != nil {
				return nil, err
			}
			preds = append(preds, s.ithemalModel(hsw.Name))
		}

		g := &googleResult{name: app.Name, preds: make(map[string][]float64)}
		for _, m := range preds {
			g.names = append(g.names, m.Name())
		}
		for i := range recs {
			if meas[i].status != profiler.StatusOK || meas[i].tp <= 0 {
				continue
			}
			keep := true
			vals := map[string]float64{}
			for _, m := range preds {
				p, err := m.Predict(recs[i].Block)
				if err != nil {
					keep = false
					break
				}
				vals[m.Name()] = p
			}
			if !keep {
				continue
			}
			g.measured = append(g.measured, meas[i].tp)
			g.weights = append(g.weights, recs[i].Freq)
			g.cats = append(g.cats, cls.Category(offsets[ai]+i))
			for name, p := range vals {
				g.preds[name] = append(g.preds[name], p)
			}
		}
		out = append(out, g)
	}
	return out, nil
}

// Table6 reproduces the Spanner/Dremel accuracy table (Table VI).
func (s *Suite) Table6() (*Table, error) {
	t := &Table{
		ID:    "table6",
		Title: "Accuracy on Spanner and Dremel (Haswell; OSACA excluded as in the paper)",
		Header: []string{"Application", "Model", "Average Error", "Weighted Error",
			"Kendall's Tau"},
	}
	gs, err := s.googleData()
	if err != nil {
		return nil, err
	}
	for _, g := range gs {
		for _, name := range g.names {
			errs := make([]float64, len(g.measured))
			for i := range g.measured {
				errs[i] = stats.RelError(g.preds[name][i], g.measured[i])
			}
			t.Rows = append(t.Rows, []string{
				g.name, name,
				fmt.Sprintf("%.4f", stats.Mean(errs)),
				fmt.Sprintf("%.4f", stats.WeightedMean(errs, g.weights)),
				fmt.Sprintf("%.4f", stats.KendallTau(g.preds[name], g.measured)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper (Spanner): IACA .1892/.1659/.7786, llvm-mca .1764/.1519/.7623, Ithemal .1629/.1414/.7799")
	return t, nil
}

// FigGoogleBlocks reproduces the category composition of the Google
// workloads, weighted by execution frequency.
func (s *Suite) FigGoogleBlocks() (*Table, error) {
	t := &Table{
		ID:     "fig-google-blocks",
		Title:  "Basic-block composition of Spanner/Dremel (weighted by execution frequency, %)",
		Header: []string{"Application", "Cat-1", "Cat-2", "Cat-3", "Cat-4", "Cat-5", "Cat-6"},
	}
	gs, err := s.googleData()
	if err != nil {
		return nil, err
	}
	for _, g := range gs {
		var byCat [classify.NumCategories + 1]float64
		var total float64
		for i, c := range g.cats {
			byCat[int(c)] += float64(g.weights[i])
			total += float64(g.weights[i])
		}
		row := []string{g.name}
		for cat := 1; cat <= classify.NumCategories; cat++ {
			row = append(row, fmt.Sprintf("%.1f", 100*byCat[cat]/total))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: both applications spend 40-50% of time in load-dominated blocks (category-6)")
	return t, nil
}

// Names lists the experiment ids runnable via Run.
func Names() []string {
	return []string{"table1", "table2", "table3", "table4", "table5", "table6",
		"fig-examples", "fig-apps-clusters", "fig-app-err", "fig-cluster-err",
		"case-study", "fig-scheduling", "fig-google-blocks", "fig-length-err"}
}

// RunResult is one experiment's structured output: the tables it built
// (nil for the free-form figures) and the exact text rendering Run
// returns. The evaluation server serializes Tables as the Table V/VI-
// shaped JSON of its /result endpoint.
type RunResult struct {
	ID     string   `json:"id"`
	Tables []*Table `json:"tables,omitempty"`
	Text   string   `json:"text"`
}

// RunStructured executes one experiment by id and returns its structured
// result. uarchName applies to the per-µarch figures (empty = all three).
func (s *Suite) RunStructured(id, uarchName string) (*RunResult, error) {
	cpus := uarch.All()
	if uarchName != "" {
		cpu, err := uarch.ByName(uarchName)
		if err != nil {
			return nil, err
		}
		cpus = []*uarch.CPU{cpu}
	}
	one := func(t *Table, err error) (*RunResult, error) {
		if err != nil {
			return nil, err
		}
		return &RunResult{ID: id, Tables: []*Table{t}, Text: t.Render()}, nil
	}
	perCPU := func(f func(*uarch.CPU) (*Table, error)) (*RunResult, error) {
		// Every per-µarch figure reads the µarch's measurements: take
		// them for the whole set in one block-major pass.
		if _, err := s.modelMeas(cpus); err != nil {
			return nil, err
		}
		rr := &RunResult{ID: id}
		var sb strings.Builder
		for _, cpu := range cpus {
			t, err := f(cpu)
			if err != nil {
				return nil, err
			}
			rr.Tables = append(rr.Tables, t)
			sb.WriteString(t.Render())
		}
		rr.Text = sb.String()
		return rr, nil
	}
	switch id {
	case "table1":
		return one(s.Table1(), nil)
	case "table2":
		return one(s.Table2(), nil)
	case "table3":
		return one(s.Table3(), nil)
	case "table4":
		return one(s.Table4(), nil)
	case "table5":
		return one(s.Table5())
	case "table6":
		return one(s.Table6())
	case "fig-examples":
		return &RunResult{ID: id, Text: s.FigExamples()}, nil
	case "fig-apps-clusters":
		return one(s.FigAppsVsClusters(), nil)
	case "fig-app-err":
		return perCPU(s.FigAppErr)
	case "fig-cluster-err":
		return perCPU(s.FigClusterErr)
	case "fig-length-err":
		return perCPU(s.FigLenErr)
	case "case-study":
		return one(s.CaseStudy())
	case "fig-scheduling":
		text, err := s.FigScheduling()
		if err != nil {
			return nil, err
		}
		return &RunResult{ID: id, Text: text}, nil
	case "fig-google-blocks":
		return one(s.FigGoogleBlocks())
	case XValID:
		tables, err := s.CrossValidation(cpus)
		if err != nil {
			return nil, err
		}
		rr := &RunResult{ID: id, Tables: tables}
		var sb strings.Builder
		for _, t := range tables {
			sb.WriteString(t.Render())
		}
		rr.Text = sb.String()
		return rr, nil
	case BoundCheckID:
		// The bounds are proofs against the simulator, not paper
		// reproductions, so the crosscheck covers every parameterized
		// microarchitecture — including post-Skylake ones the paper's
		// tables exclude — unless one was requested explicitly.
		bcCPUs := cpus
		if uarchName == "" {
			bcCPUs = uarch.Extended()
		}
		tables, err := s.BoundCheck(bcCPUs)
		if err != nil {
			return nil, err
		}
		rr := &RunResult{ID: id, Tables: tables}
		var sb strings.Builder
		for _, t := range tables {
			sb.WriteString(t.Render())
		}
		rr.Text = sb.String()
		return rr, nil
	case "all":
		rr := &RunResult{ID: id}
		var sb strings.Builder
		for _, name := range Names() {
			sub, err := s.RunStructured(name, uarchName)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rr.Tables = append(rr.Tables, sub.Tables...)
			sb.WriteString(sub.Text)
			sb.WriteByte('\n')
		}
		rr.Text = sb.String()
		return rr, nil
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, AllNames())
}

// Run executes one experiment by id and returns its text rendering.
// uarchName applies to the per-µarch figures (empty = all three).
func (s *Suite) Run(id, uarchName string) (string, error) {
	rr, err := s.RunStructured(id, uarchName)
	if err != nil {
		return "", err
	}
	return rr.Text, nil
}
