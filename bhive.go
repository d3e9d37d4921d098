// Package bhive is a from-scratch Go reproduction of "BHive: A Benchmark
// Suite and Measurement Framework for Validating x86-64 Basic Block
// Performance Models" (IISWC 2019).
//
// The package is the public facade over the internal subsystems:
//
//   - a basic-block representation with an assembler/disassembler for real
//     x86-64 machine code (internal/x86);
//   - a simulated machine — cycle-level out-of-order cores parameterized as
//     Ivy Bridge, Haswell and Skylake over a virtual-memory and cache
//     substrate (internal/uarch, internal/pipeline, internal/machine);
//   - the BHive measurement framework, which profiles arbitrary basic
//     blocks by mapping every page they touch onto one physical page and
//     deriving steady-state throughput from two unroll factors
//     (internal/profiler);
//   - the benchmark suite generator and dynamic collector
//     (internal/corpus), the LDA block classifier (internal/classify), and
//     the port-mapping inference (internal/portmap);
//   - four throughput predictors in the style of IACA, llvm-mca, OSACA and
//     Ithemal (internal/models), and the experiment harness that
//     regenerates every table and figure of the paper (internal/harness).
//
// Quick start:
//
//	block, _ := bhive.ParseBlock("add rax, rbx", bhive.SyntaxIntel)
//	res, _ := bhive.Profile("haswell", block)
//	fmt.Println(res.Throughput) // cycles per iteration
package bhive

import (
	"bhive/internal/blocklint"
	"bhive/internal/classify"
	"bhive/internal/corpus"
	"bhive/internal/harness"
	"bhive/internal/models"
	"bhive/internal/models/ithemal"
	"bhive/internal/profiler"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// Re-exported core types.
type (
	// Block is a basic block of x86-64 instructions.
	Block = x86.Block
	// Inst is one instruction.
	Inst = x86.Inst
	// Syntax selects the assembly dialect for parsing.
	Syntax = x86.Syntax
	// Result is a profiling outcome.
	Result = profiler.Result
	// Status classifies a profiling attempt.
	Status = profiler.Status
	// Options selects measurement techniques (for ablation studies).
	Options = profiler.Options
	// Predictor is a basic-block throughput model.
	Predictor = models.Predictor
	// Record is a collected corpus block with its execution frequency.
	Record = corpus.Record
	// Category is one of the paper's six block categories.
	Category = classify.Category
	// ExperimentConfig parameterizes the evaluation harness.
	ExperimentConfig = harness.Config
	// Suite owns a corpus and regenerates the paper's tables and figures.
	Suite = harness.Suite
	// LearnedModel is the Ithemal-style LSTM predictor.
	LearnedModel = ithemal.Model
	// TrainSample is one (block, measured throughput) training example.
	TrainSample = ithemal.Sample
	// TrainOptions configures LSTM training.
	TrainOptions = ithemal.TrainConfig
	// LintReport is the static block analyzer's typed result: a predicted
	// measurement status plus machine-readable diagnostics (BL001…).
	LintReport = blocklint.Report
	// LintDiag is one static-analysis finding.
	LintDiag = blocklint.Diag
)

// Syntax constants.
const (
	SyntaxAuto  = x86.SyntaxAuto
	SyntaxIntel = x86.SyntaxIntel
	SyntaxATT   = x86.SyntaxATT
)

// Profiling status constants.
const (
	StatusOK          = profiler.StatusOK
	StatusCrashed     = profiler.StatusCrashed
	StatusUnsupported = profiler.StatusUnsupported
	StatusCacheMiss   = profiler.StatusCacheMiss
	StatusMisaligned  = profiler.StatusMisaligned
	StatusUnstable    = profiler.StatusUnstable
)

// ParseBlock assembles a multi-line Intel- or AT&T-syntax listing.
func ParseBlock(text string, syntax Syntax) (*Block, error) {
	return x86.ParseBlock(text, syntax)
}

// BlockFromHex decodes a block from machine-code hex — the storage format
// of the benchmark suite.
func BlockFromHex(hexStr string) (*Block, error) { return x86.BlockFromHex(hexStr) }

// Microarchitectures lists the validated targets: ivybridge, haswell,
// skylake.
func Microarchitectures() []string {
	var out []string
	for _, c := range uarch.All() {
		out = append(out, c.Name)
	}
	return out
}

// DefaultOptions is the full BHive measurement methodology.
func DefaultOptions() Options { return profiler.DefaultOptions() }

// BaselineOptions is the no-mapping Agner-script baseline.
func BaselineOptions() Options { return profiler.BaselineOptions() }

// Profile measures a block's steady-state cycles-per-iteration on the
// named microarchitecture with the full methodology.
func Profile(arch string, b *Block) (Result, error) {
	return ProfileWith(arch, b, profiler.DefaultOptions())
}

// ProfileWith measures with explicit options.
func ProfileWith(arch string, b *Block, opts Options) (Result, error) {
	cpu, err := uarch.ByName(arch)
	if err != nil {
		return Result{}, err
	}
	return profiler.New(cpu, opts).Profile(b), nil
}

// Lint statically analyzes a block under the given measurement options:
// it predicts the profiling status from the profiler's functional pass,
// without timing the block, and reports per-block diagnostics and facts. A rejected report (non-OK
// prediction) is a guarantee — the dynamic protocol cannot accept the
// block — which is what makes prescreening safe.
func Lint(arch string, b *Block, opts Options) (*LintReport, error) {
	cpu, err := uarch.ByName(arch)
	if err != nil {
		return nil, err
	}
	return blocklint.New(cpu, opts).Analyze(b), nil
}

// Models returns the four analytical predictors (IACA-, llvm-mca- and
// OSACA-like, plus the bound-based Facile model) for the named
// microarchitecture.
func Models(arch string) ([]Predictor, error) {
	cpu, err := uarch.ByName(arch)
	if err != nil {
		return nil, err
	}
	return models.All(cpu), nil
}

// NewLearnedModel builds an untrained Ithemal-style model (embedding size
// d, hidden size h).
func NewLearnedModel(d, h int, seed int64) *LearnedModel { return ithemal.New(d, h, seed) }

// GenerateCorpus builds the benchmark suite at the given scale (1.0 is the
// paper's 358,561 blocks plus OpenSSL).
func GenerateCorpus(scale float64, seed int64) []Record {
	return corpus.GenerateAll(scale, seed)
}

// NewSuite builds the experiment harness.
func NewSuite(cfg ExperimentConfig) *Suite { return harness.New(cfg) }

// DefaultExperimentConfig is sized for interactive runs.
func DefaultExperimentConfig() ExperimentConfig { return harness.DefaultConfig() }

// Experiments lists the runnable table/figure ids.
func Experiments() []string { return harness.Names() }
