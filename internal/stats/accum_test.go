package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestRunningMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	// Same addition order ⇒ bit-identical, not just approximately equal.
	if r.Mean() != Mean(xs) {
		t.Fatalf("running mean %v != Mean %v", r.Mean(), Mean(xs))
	}
	if r.N() != len(xs) {
		t.Fatalf("n %d", r.N())
	}
}

func TestRunningSkipsNaNAndMerges(t *testing.T) {
	var a Running
	a.Add(1)
	a.Add(math.NaN())
	a.Add(3)
	if a.N() != 2 {
		t.Fatalf("NaN must be dropped: n=%d", a.N())
	}
	if a.Mean() != 2 {
		t.Fatalf("mean %v", a.Mean())
	}
	var empty Running
	if empty.Mean() != 0 {
		t.Fatal("empty running mean")
	}
}

func TestRunningWeightedMatchesWeightedMean(t *testing.T) {
	xs := []float64{1, math.NaN(), 3}
	ws := []uint64{1, 100, 3}
	var r RunningWeighted
	for i := range xs {
		r.Add(xs[i], ws[i])
	}
	want := WeightedMean(xs, ws)
	if r.Mean() != want {
		t.Fatalf("running weighted %v != WeightedMean %v", r.Mean(), want)
	}
	if r.N() != 2 {
		t.Fatalf("NaN must be dropped: n=%d", r.N())
	}
	var empty RunningWeighted
	if empty.Mean() != 0 {
		t.Fatal("zero-weight mean")
	}
}

func TestTauAccMatchesKendallTau(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 300
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		// Small ranges generate ties; sprinkle NaN in too.
		a[i] = float64(rng.Intn(6))
		b[i] = float64(rng.Intn(6))
		if rng.Intn(20) == 0 {
			b[i] = math.NaN()
		}
	}
	var acc TauAcc
	for i := range a {
		acc.Add(a[i], b[i])
	}
	if got, want := acc.Value(), KendallTau(a, b); got != want {
		t.Fatalf("acc tau %v != KendallTau %v", got, want)
	}

	var empty TauAcc
	if empty.Value() != 0 {
		t.Fatal("empty tau")
	}

	// A reserved accumulator yields the same tau and allocates nothing
	// while it is fed.
	var reserved TauAcc
	reserved.Reserve(n)
	if allocs := testing.AllocsPerRun(1, func() {
		reserved = TauAcc{a: reserved.a[:0], b: reserved.b[:0]}
		for i := range a {
			reserved.Add(a[i], b[i])
		}
	}); allocs != 0 {
		t.Fatalf("feeding %d reserved pairs allocates %.1f times", n, allocs)
	}
	if got, want := reserved.Value(), acc.Value(); got != want {
		t.Fatalf("reserved tau %v != tau %v", got, want)
	}
}
