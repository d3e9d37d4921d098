package corpus

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"bhive/internal/x86"
)

// Record is one collected basic block with its dynamic execution frequency,
// as a DynamoRIO-style tracer would report it.
type Record struct {
	App   string
	Block *x86.Block
	// Freq is the number of times the block executed during collection.
	Freq uint64
}

// appSeed derives a per-application seed so corpora are stable regardless
// of generation order.
func appSeed(name string, seed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// Generate collects the application's basic blocks at the given scale
// (1.0 = the paper's full counts). Blocks are organized into synthetic
// functions with loop nests; the collector walks them to assign dynamic
// execution frequencies, so hot inner blocks carry most of the runtime
// weight (and, for numeric applications, skew vectorized).
func (a *App) Generate(scale float64, seed int64) []Record {
	n := int(math.Round(float64(a.Blocks) * scale))
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(appSeed(a.Name, seed)))
	out := make([]Record, 0, n)

	for len(out) < n {
		// One synthetic function: 3–12 blocks with a loop nest.
		fnBlocks := 3 + rng.Intn(10)
		if fnBlocks > n-len(out) {
			fnBlocks = n - len(out)
		}
		// Function call count: heavy-tailed (a few very hot functions).
		calls := uint64(1 + rng.Intn(10))
		if rng.Intn(8) == 0 {
			calls *= uint64(100 + rng.Intn(10000))
		}

		mult := uint64(1)
		loopLeft := 0
		for b := 0; b < fnBlocks; b++ {
			if loopLeft == 0 && rng.Intn(4) == 0 {
				// Enter a loop spanning the next few blocks.
				trip := uint64(1) << (1 + rng.Intn(6)) // 2..64 iterations
				mult *= trip
				loopLeft = 1 + rng.Intn(3)
			} else if loopLeft > 0 {
				loopLeft--
				if loopLeft == 0 {
					mult = 1
				}
			}
			freq := calls * mult
			// Hot blocks are the innermost loop bodies (deep multipliers)
			// and, for server workloads, the bodies of very hot functions:
			// both are statically rare but dynamically dominant.
			hot := mult >= 64 || (a.mix.hotLoadHeavy && calls >= 20000)
			out = append(out, Record{
				App:   a.Name,
				Block: a.generate(rng, hot),
				Freq:  freq,
			})
		}
	}
	return out[:n]
}

// GenerateAll collects the full open-source suite (the nine Table III
// applications plus OpenSSL) at the given scale.
func GenerateAll(scale float64, seed int64) []Record {
	var out []Record
	for _, a := range Apps() {
		out = append(out, a.Generate(scale, seed)...)
	}
	return out
}

// GenerateTable3 collects only the nine applications of the paper's
// Table III.
func GenerateTable3(scale float64, seed int64) []Record {
	var out []Record
	for _, a := range Apps() {
		if a.InTable3 {
			out = append(out, a.Generate(scale, seed)...)
		}
	}
	return out
}

// TopByFreq returns the n most frequently executed records (the case study
// profiles the 100,000 hottest blocks of Spanner and Dremel).
func TopByFreq(recs []Record, n int) []Record {
	sorted := append([]Record(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Freq > sorted[j].Freq })
	if n > len(sorted) {
		n = len(sorted)
	}
	return sorted[:n]
}

// Table3Total is the full-scale block count of the paper's Table III.
const Table3Total = 358561
