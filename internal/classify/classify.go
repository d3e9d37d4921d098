// Package classify assigns basic blocks to the paper's six categories by
// clustering their micro-ops' execution-port combinations with LDA
// (6 topics, alpha = 1/6, beta = 1/13 over the 13 Haswell port
// combinations) and labelling each topic from the hardware-resource mix of
// the micro-ops it attracted.
package classify

import (
	"fmt"
	"sort"

	"bhive/internal/lda"
	"bhive/internal/memo"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// Category is a block category, numbered 1..6 as in the paper's Table IV.
type Category int

// The six categories.
const (
	CatScalarVecMix Category = 1 + iota // mix of scalar and vectorized arithmetic
	CatPureVector                       // purely vector instructions
	CatLoadStoreMix                     // mix of loads and stores
	CatMostlyStores                     // mostly stores
	CatALUWithMem                       // ALU ops sprinkled with loads and stores
	CatMostlyLoads                      // mostly loads
	NumCategories   = 6
)

var catDescriptions = map[Category]string{
	CatScalarVecMix: "Mix of Scalar and Vectorized arithmetic",
	CatPureVector:   "Purely Vector instructions",
	CatLoadStoreMix: "Mix of loads and stores",
	CatMostlyStores: "Mostly stores",
	CatALUWithMem:   "ALU ops sprinkled with loads and stores",
	CatMostlyLoads:  "Mostly loads",
}

// Description returns the paper's description of a category.
func (c Category) Description() string { return catDescriptions[c] }

// String returns "Category-N".
func (c Category) String() string { return fmt.Sprintf("Category-%d", int(c)) }

// feature buckets used to label topics.
type feature int

const (
	featLoad feature = iota
	featStore
	featVec
	featScalar
	numFeatures
)

// classFeature buckets a µop class.
func classFeature(c uarch.UopClass) feature {
	switch c {
	case uarch.ClassLoad:
		return featLoad
	case uarch.ClassStoreAddr, uarch.ClassStoreData:
		return featStore
	case uarch.ClassVecALU, uarch.ClassVecLogic, uarch.ClassVecMul,
		uarch.ClassVecShift, uarch.ClassFPAdd, uarch.ClassFPMul,
		uarch.ClassFMA, uarch.ClassFPDiv, uarch.ClassShuffle,
		uarch.ClassTransfer:
		return featVec
	}
	return featScalar
}

// BlockDoc converts a block into an LDA document: one word per µop, the
// word being the µop's port-combination index. The parallel feature slice
// is used only for topic labelling.
func BlockDoc(cpu *uarch.CPU, comboIdx map[uarch.PortSet]int, b *x86.Block) (words []int, feats []feature) {
	var buf [32]*memo.PreparedInst
	for _, e := range memo.For(cpu).Resolve(buf[:0], b) {
		if e.DescErr != nil {
			continue
		}
		d := &e.Desc
		for _, u := range d.Uops {
			if w, ok := comboIdx[u.Ports]; ok {
				words = append(words, w)
				feats = append(feats, classFeature(u.Class))
			}
		}
		// Zero idioms / eliminated moves contribute the scalar-ALU
		// combination (the static tables the paper uses know nothing of
		// rename-time elimination).
		if (d.ZeroIdiom || d.EliminatedMove) && e.RawDescErr == nil {
			for _, u := range e.RawDesc.Uops {
				if w, ok := comboIdx[u.Ports]; ok {
					words = append(words, w)
					feats = append(feats, classFeature(u.Class))
				}
			}
		}
	}
	return words, feats
}

// Classifier is a fitted block classifier.
type Classifier struct {
	cpu      *uarch.CPU
	comboIdx map[uarch.PortSet]int
	model    *lda.Model
	topicCat []Category // topic -> category
	cats     []Category // per fitted block
}

// Options for fitting.
type Options struct {
	Topics int
	Alpha  float64
	Beta   float64
	Sweeps int
	Seed   int64
}

// DefaultOptions are the paper's hyperparameters: K=6, alpha=1/6,
// beta=1/13 (one over the Haswell port-combination count).
func DefaultOptions() Options {
	return Options{Topics: 6, Alpha: 1.0 / 6, Beta: 1.0 / 13, Sweeps: 12, Seed: 1}
}

// Fit clusters the blocks. The port-combination vocabulary comes from the
// given CPU (the paper uses Haswell for classification on all targets).
func Fit(cpu *uarch.CPU, blocks []*x86.Block, opts Options) *Classifier {
	comboIdx := cpu.ComboIndex()
	vocab := len(comboIdx)

	docs := make([][]int, len(blocks))
	featDocs := make([][]feature, len(blocks))
	for i, b := range blocks {
		docs[i], featDocs[i] = BlockDoc(cpu, comboIdx, b)
	}

	// Semi-supervised initialization: seed the sampler with a
	// feature-informed topic guess per µop, so the six topics converge to
	// the six resource clusters instead of six slices of the dominant
	// scalar mass (the symmetry randomly-initialized Gibbs gets stuck in
	// on a vocabulary of 13 words). The sampler remains free to reassign.
	hints := make([][]int, len(docs))
	for d := range docs {
		if len(docs[d]) == 0 {
			continue
		}
		var nLoad, nStore, nVec int
		for _, f := range featDocs[d] {
			switch f {
			case featLoad:
				nLoad++
			case featStore:
				nStore++
			case featVec:
				nVec++
			}
		}
		n := len(featDocs[d])
		pureVec := nVec*4 >= n*3
		memMix := nLoad*5 >= n && nStore*5 >= n
		hints[d] = make([]int, n)
		for i, f := range featDocs[d] {
			switch {
			case f == featVec && pureVec:
				hints[d][i] = 1
			case f == featVec:
				hints[d][i] = 0
			case f == featLoad && memMix:
				hints[d][i] = 2
			case f == featLoad:
				hints[d][i] = 5
			case f == featStore && memMix:
				hints[d][i] = 2
			case f == featStore:
				hints[d][i] = 3
			default:
				hints[d][i] = 4
			}
		}
	}

	model := lda.FitSeeded(docs, hints, vocab, opts.Topics, opts.Alpha, opts.Beta, opts.Sweeps, opts.Seed)

	// Label topics: accumulate the feature mix each topic attracted.
	counts := make([][]float64, opts.Topics)
	for k := range counts {
		counts[k] = make([]float64, numFeatures)
	}
	for d := range docs {
		for i := range docs[d] {
			k := model.Assignments[d][i]
			counts[k][classFeatureIndex(featDocs[d][i])]++
		}
	}
	topicCat := labelTopics(counts)

	c := &Classifier{
		cpu: cpu, comboIdx: comboIdx, model: model, topicCat: topicCat,
	}
	c.cats = make([]Category, len(blocks))
	for d := range docs {
		if len(docs[d]) == 0 {
			c.cats[d] = CatALUWithMem // degenerate blocks default scalar
			continue
		}
		c.cats[d] = topicCat[model.DocTopic(d)]
	}
	return c
}

func classFeatureIndex(f feature) int { return int(f) }

// labelTopics maps each topic to a distinct category by greedy best-score
// assignment over the topics' feature fractions.
func labelTopics(counts [][]float64) []Category {
	K := len(counts)
	type frac struct{ l, s, v, a float64 }
	fr := make([]frac, K)
	for k, c := range counts {
		tot := c[featLoad] + c[featStore] + c[featVec] + c[featScalar]
		if tot == 0 {
			tot = 1
		}
		fr[k] = frac{
			l: c[featLoad] / tot, s: c[featStore] / tot,
			v: c[featVec] / tot, a: c[featScalar] / tot,
		}
	}
	harm := func(x, y float64) float64 {
		if x+y == 0 {
			return 0
		}
		return 2 * x * y / (x + y)
	}
	score := func(k int, cat Category) float64 {
		f := fr[k]
		switch cat {
		case CatPureVector:
			return f.v * (1 - f.l - f.s)
		case CatScalarVecMix:
			return harm(f.v, f.a+f.l)
		case CatMostlyLoads:
			return f.l * (1 - f.s)
		case CatMostlyStores:
			return f.s * (1 - f.l)
		case CatLoadStoreMix:
			return harm(f.l, f.s)
		case CatALUWithMem:
			return f.a * (1 - f.v)
		}
		return 0
	}

	type cell struct {
		k   int
		cat Category
		sc  float64
	}
	var cells []cell
	for k := 0; k < K; k++ {
		for cat := Category(1); cat <= NumCategories; cat++ {
			cells = append(cells, cell{k, cat, score(k, cat)})
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].sc != cells[j].sc {
			return cells[i].sc > cells[j].sc
		}
		if cells[i].k != cells[j].k {
			return cells[i].k < cells[j].k
		}
		return cells[i].cat < cells[j].cat
	})
	out := make([]Category, K)
	usedTopic := make([]bool, K)
	usedCat := make(map[Category]bool)
	assigned := 0
	for _, c := range cells {
		if assigned == K {
			break
		}
		if usedTopic[c.k] || usedCat[c.cat] {
			continue
		}
		out[c.k] = c.cat
		usedTopic[c.k] = true
		usedCat[c.cat] = true
		assigned++
	}
	return out
}

// Category returns the category of fitted block i.
func (c *Classifier) Category(i int) Category { return c.cats[i] }

// Categories returns the category of every fitted block.
func (c *Classifier) Categories() []Category { return c.cats }

// Classify folds a new block into the fitted model.
func (c *Classifier) Classify(b *x86.Block) Category {
	words, _ := BlockDoc(c.cpu, c.comboIdx, b)
	if len(words) == 0 {
		return CatALUWithMem
	}
	return c.topicCat[c.model.Infer(words, 10, 7)]
}

// Counts returns the number of fitted blocks per category.
func (c *Classifier) Counts() map[Category]int {
	out := make(map[Category]int, NumCategories)
	for _, cat := range c.cats {
		out[cat]++
	}
	return out
}

// Example returns the index of a representative fitted block for the
// category: the one with the highest dominant-topic confidence.
func (c *Classifier) Example(cat Category) int {
	best, bestP := -1, -1.0
	for d := range c.cats {
		if c.cats[d] != cat {
			continue
		}
		dist := c.model.DocTopicDist(d)
		p := dist[c.model.DocTopic(d)]
		if p > bestP {
			best, bestP = d, p
		}
	}
	return best
}
