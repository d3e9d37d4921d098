package bound

import (
	"math"
	"sync"
	"testing"

	"bhive/internal/corpus"
	"bhive/internal/memo"
	"bhive/internal/uarch"
)

// positiveCycle reports whether the edge-weighted quotient graph contains
// a cycle of positive total weight under w(e) = delta - lambda*lag
// (Bellman-Ford from a virtual source connected to every node).
func positiveCycle(n int, edges []depEdge, lambda float64) bool {
	dist := make([]float64, n)
	for pass := 0; pass <= n; pass++ {
		changed := false
		for _, e := range edges {
			w := float64(e.delta) - lambda*float64(e.lag)
			if d := dist[e.from] + w; d > dist[e.to]+1e-9 {
				dist[e.to] = d
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	return true
}

// bisectCycleRatio is the former dependence-height search, kept as an
// oracle for maxCycleRatio: bisection on lambda with the positive-cycle
// test, returning the feasible side, so it undercuts the exact ratio by
// at most its 1e-9 relative tolerance.
func bisectCycleRatio(n int, edges []depEdge) float64 {
	if len(edges) == 0 || !positiveCycle(n, edges, 0) {
		return 0 // acyclic: no loop-carried dependence
	}
	// Any simple cycle visits each instruction at most once, so its total
	// delta is at most the sum of the largest per-instruction deltas.
	var hi float64
	perInst := make([]int64, n)
	for _, e := range edges {
		if e.delta > perInst[e.to] {
			perInst[e.to] = e.delta
		}
	}
	for _, d := range perInst {
		hi += float64(d)
	}
	hi++
	lo := 0.0
	for iter := 0; iter < 50 && hi-lo > 1e-9*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if positiveCycle(n, edges, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// cycleSums is the (Σdelta, Σlag) of one cycle.
type cycleSums struct{ p, q int64 }

// simpleCycles enumerates the sums of every simple cycle of the quotient
// multigraph, each cycle once (rooted at its lowest node).
func simpleCycles(n int, edges []depEdge) []cycleSums {
	var out []cycleSums
	onPath := make([]bool, n)
	var walk func(root, v int, p, q int64)
	walk = func(root, v int, p, q int64) {
		for _, e := range edges {
			if e.from != v || e.to < root {
				continue
			}
			switch {
			case e.to == root:
				out = append(out, cycleSums{p + e.delta, q + int64(e.lag)})
			case !onPath[e.to]:
				onPath[e.to] = true
				walk(root, e.to, p+e.delta, q+int64(e.lag))
				onPath[e.to] = false
			}
		}
	}
	for root := 0; root < n; root++ {
		onPath[root] = true
		walk(root, root, 0, 0)
		onPath[root] = false
	}
	return out
}

// graphFromBytes decodes a fuzz input into a quotient graph: n ≤ 8 nodes,
// then up to 24 edges of three bytes each (from, to, lag 0-3 and delta
// 0-40 packed). Same-iteration edges are pointed forward, as carriedEdges
// builds them; a same-iteration self-loop becomes a one-iteration one.
func graphFromBytes(data []byte) (int, []depEdge) {
	if len(data) == 0 {
		return 1, nil
	}
	n := 1 + int(data[0]%8)
	var edges []depEdge
	for i := 1; i+2 < len(data) && len(edges) < 24; i += 3 {
		e := depEdge{
			from:  int(data[i]) % n,
			to:    int(data[i+1]) % n,
			lag:   int(data[i+2] % 4),
			delta: int64(data[i+2]/4) % 41,
		}
		if e.lag == 0 {
			switch {
			case e.from > e.to:
				e.from, e.to = e.to, e.from
			case e.from == e.to:
				e.lag = 1
			}
		}
		edges = append(edges, e)
	}
	return n, edges
}

var (
	fuzzMu      sync.Mutex
	fuzzScratch cycleScratch // reused across inputs to catch stale state
)

// FuzzMaxCycleRatio checks policy iteration against brute force: its
// (p, q) are the sums of a real simple cycle, and no simple cycle has a
// larger ratio (compared as exact rationals). A fresh and a reused scratch
// must agree.
func FuzzMaxCycleRatio(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4})                                  // one self-loop, delta 1
	f.Add([]byte{2, 0, 1, 12, 1, 2, 8, 2, 0, 5, 1, 0, 1})      // triangle plus a 2-cycle
	f.Add([]byte{7, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0, 1, 4, 5}) // forward chain closed once
	f.Add([]byte{4, 0, 1, 160, 1, 0, 161, 2, 3, 6, 3, 2, 7, 1, 2, 40, 2, 1, 41})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges := graphFromBytes(data)
		p, q, err := maxCycleRatio(n, edges, new(cycleScratch))
		if err != nil {
			t.Fatal(err)
		}
		fuzzMu.Lock()
		rp, rq, rerr := maxCycleRatio(n, edges, &fuzzScratch)
		fuzzMu.Unlock()
		if rp != p || rq != q || rerr != nil {
			t.Fatalf("reused scratch gave (%d, %d, %v), fresh (%d, %d)", rp, rq, rerr, p, q)
		}

		cycles := simpleCycles(n, edges)
		if len(cycles) == 0 {
			if p != 0 || q != 0 {
				t.Fatalf("acyclic graph %v: got (%d, %d), want (0, 0)", edges, p, q)
			}
			return
		}
		found := false
		for _, c := range cycles {
			if c.p*q > p*c.q {
				t.Fatalf("graph %v: cycle %d/%d beats the result %d/%d", edges, c.p, c.q, p, q)
			}
			found = found || c == cycleSums{p, q}
		}
		if !found {
			t.Fatalf("graph %v: result (%d, %d) is not the sums of any simple cycle", edges, p, q)
		}
	})
}

// TestMaxCycleRatioMatchesBisection compares the exact ratio with the
// bisection oracle over a generated corpus on every µarch: the exact
// value is never below the oracle's feasible side, and no further above
// it than the oracle's tolerance.
func TestMaxCycleRatioMatchesBisection(t *testing.T) {
	recs := corpus.GenerateAll(0.01, 1)
	s := new(Scratch)
	checked, cyclic := 0, 0
	for _, cpu := range uarch.Extended() {
		arch := memo.For(cpu)
	blocks:
		for _, r := range recs {
			entries := make([]*memo.PreparedInst, len(r.Block.Insts))
			for i := range r.Block.Insts {
				if entries[i] = arch.Prepared(&r.Block.Insts[i]); entries[i].DescErr != nil {
					continue blocks
				}
			}
			_, p, q, err := chain(entries, s)
			if err != nil {
				t.Fatal(err)
			}
			exact := 0.0
			if q > 0 {
				exact = float64(p) / float64(q)
				cyclic++
			}
			bisect := bisectCycleRatio(len(s.chains), s.edges)
			if exact < bisect || exact-bisect > 1e-6*(1+exact) {
				hexStr, _ := r.Block.Hex()
				t.Fatalf("%s/%s: exact %d/%d = %v, bisection %v", cpu.Name, hexStr, p, q, exact, bisect)
			}
			checked++
		}
	}
	if checked < 10000 || cyclic < checked/4 {
		t.Fatalf("only %d analyses (%d cyclic)", checked, cyclic)
	}
	t.Logf("%d analyses, %d with a dependence cycle", checked, cyclic)
}

// TestMaxCycleRatioKnown pins hand-computed graphs, including one where
// the heaviest edge does not lie on the critical cycle.
func TestMaxCycleRatioKnown(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []depEdge
		p, q  int64
	}{
		{"acyclic", 3, []depEdge{{0, 1, 5, 0}, {1, 2, 5, 0}}, 0, 0},
		{"self-loop", 1, []depEdge{{0, 0, 3, 1}}, 3, 1},
		{"two-iteration loop", 2, []depEdge{{0, 1, 4, 0}, {1, 0, 3, 2}}, 7, 2},
		{"zero-latency cycle", 2, []depEdge{{0, 1, 0, 0}, {1, 0, 0, 1}}, 0, 1},
		// Node 1's heaviest edge closes the 14-cycle over 3 iterations
		// (ratio 4.67); its light edge closes the 6-cycle over one.
		{"light edge wins", 3, []depEdge{
			{0, 1, 9, 0}, {1, 0, 5, 3}, {1, 2, 2, 0}, {2, 1, 4, 1},
		}, 6, 1},
	}
	for _, c := range cases {
		p, q, err := maxCycleRatio(c.n, c.edges, new(cycleScratch))
		if err != nil || p != c.p || q != c.q {
			t.Errorf("%s: got (%d, %d, %v), want (%d, %d)", c.name, p, q, err, c.p, c.q)
		}
		if want := bisectCycleRatio(c.n, c.edges); c.q > 0 && math.Abs(float64(c.p)/float64(c.q)-want) > 1e-6 {
			t.Errorf("%s: bisection oracle gives %v", c.name, want)
		}
	}
}
