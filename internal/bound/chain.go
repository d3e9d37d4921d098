package bound

import (
	"fmt"
	"sync"

	"bhive/internal/memo"
	"bhive/internal/uarch"
)

// The dependence model mirrors the reference pipeline's dependence wiring
// (internal/pipeline) exactly, because the bound is a claim about that
// simulator:
//
//   - register-use sets come from the instructions' memo entries — the
//     same address/data/write split the simulator's items carry;
//   - an instruction's register writes become ready when its last compute
//     µop completes (or its load µop, for pure loads); store µops never
//     produce register values;
//   - data reads feed the compute µops directly (they bypass the load), so
//     a data-carried edge costs only the compute-chain latency; address
//     reads feed the load µop first, so an address-carried edge through a
//     loading instruction additionally pays the load-to-use latency;
//   - instructions without a load µop ignore their address reads entirely
//     (the simulator wires addrDeps only into load and store-address µops,
//     so e.g. an LEA's compute µop does not wait for its address
//     registers);
//   - zero idioms break dependences (their outputs become free), and
//     eliminated moves alias their destination to the source's producer at
//     zero latency;
//   - instructions with neither a compute nor a load µop (push, nop, ...)
//     produce their writes "for free" — the simulator records no producer.
//
// chainKind classifies an instruction for that model.
type chainKind uint8

const (
	chainNormal chainKind = iota
	chainZero             // zero idiom: breaks every chain through its writes
	chainElim             // eliminated move: aliases writes to the source producer
	chainFree             // no producing µop: writes are ready immediately
)

// instChain is the per-instruction dependence-model summary.
type instChain struct {
	kind       chainKind
	computeSum int64 // chained latency of the compute µops
	loadLat    int64 // load µop latency (0 when hasLoad is false)
	hasLoad    bool
	hasCompute bool
	addr, data []uint8 // pipeline register ids (memo.InstInfo)
	writes     []uint8
}

// buildChains derives the dependence-model summaries for a block into
// dst's backing array.
func buildChains(dst []instChain, entries []*memo.PreparedInst) []instChain {
	chains := grow(dst, len(entries))
	for i, e := range entries {
		c := &chains[i]
		*c = instChain{addr: e.Addr, data: e.Data, writes: e.Writes}
		d := &e.Desc
		switch {
		case d.ZeroIdiom:
			c.kind = chainZero
			continue
		case d.EliminatedMove:
			c.kind = chainElim
			continue
		}
		for _, u := range d.Uops {
			switch u.Class {
			case uarch.ClassLoad:
				c.hasLoad = true
				c.loadLat = int64(u.Lat)
			case uarch.ClassStoreAddr, uarch.ClassStoreData:
				// Store µops never feed register writes.
			default:
				c.hasCompute = true
				c.computeSum += int64(u.Lat)
			}
		}
		if !c.hasCompute && !c.hasLoad {
			c.kind = chainFree
		}
	}
	return chains
}

// depEdge is one quotient-graph dependence edge: the consumer's producer
// completes no earlier than delta cycles after the producer of `from`
// completed, `lag` iterations earlier (0 = same iteration).
type depEdge struct {
	from, to int
	delta    int64
	lag      int
}

// numRegs matches the pipeline register file (0-15 GPR, 16-31 vector, 32
// flags).
const numRegs = 33

// aliasCopies is how many consecutive iteration copies the writer map is
// advanced before edges are extracted. Eliminated-move aliases can forward
// a producer across iteration boundaries; by the last copy every alias
// chain of practical length has stabilized, and a chain that has not
// merely loses an edge — weakening, never unsounding, the lower bound.
const aliasCopies = 4

// carriedEdges extracts the steady-state dependence edges of one
// iteration: the writer map is advanced over aliasCopies copies of the
// block, and the edges feeding the final copy are reported with their
// iteration lag. The edges are appended to dst[:0].
func carriedEdges(dst []depEdge, chains []instChain) []depEdge {
	n := len(chains)
	var writer [numRegs]int32 // global node id (copy*n + inst), -1 = no producer
	for i := range writer {
		writer[i] = -1
	}
	edges := dst[:0]
	for k := 0; k < aliasCopies; k++ {
		last := k == aliasCopies-1
		for i := 0; i < n; i++ {
			c := &chains[i]
			switch c.kind {
			case chainZero, chainFree:
				for _, w := range c.writes {
					writer[w] = -1
				}
				continue
			case chainElim:
				src := int32(-1)
				if len(c.data) > 0 {
					src = writer[c.data[0]]
				}
				for _, w := range c.writes {
					writer[w] = src
				}
				continue
			}
			if last {
				if c.hasCompute {
					for _, r := range c.data {
						if p := writer[r]; p >= 0 {
							edges = append(edges, depEdge{
								from: int(p) % n, to: i,
								delta: c.computeSum,
								lag:   aliasCopies - 1 - int(p)/n,
							})
						}
					}
				}
				if c.hasLoad {
					for _, r := range c.addr {
						if p := writer[r]; p >= 0 {
							edges = append(edges, depEdge{
								from: int(p) % n, to: i,
								delta: c.loadLat + c.computeSum,
								lag:   aliasCopies - 1 - int(p)/n,
							})
						}
					}
				}
			}
			id := int32(k*n + i)
			for _, w := range c.writes {
				writer[w] = id
			}
		}
	}
	return edges
}

// cycleScratch is the reusable working memory of maxCycleRatio: the
// quotient graph's out-edges in CSR form, Tarjan's SCC state and the
// policy-iteration state, all indexed by node.
type cycleScratch struct {
	start, adj []int32 // out-edges of v: adj[start[v]:start[v+1]] (edge ids)
	next       []int32 // CSR fill cursor, then Tarjan's per-node edge cursor

	index, low, comp []int32 // Tarjan: discovery order, low link, SCC root (-1 while on the stack)
	stack, calls     []int32 // Tarjan's component stack and explicit DFS stack

	pol        []int32 // policy: the chosen out-edge of each node (-1 outside every cycle)
	etaP, etaQ []int64 // ratio of the policy cycle each node reaches, in lowest terms
	x          []int64 // potential, scaled by etaQ
	state      []uint8 // unseen, onPath or settled, during evaluate
	path       []int32
}

// Node states during cycleScratch.evaluate.
const (
	unseen uint8 = iota
	onPath
	settled
)

// grow returns s resized to n elements, reusing its backing array when it
// is large enough. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// maxCycleRatio computes the maximum cycles-per-iteration over all
// dependence cycles: max over cycles of Σdelta / Σlag. Intra-iteration
// edges run strictly forward, so every cycle carries lag ≥ 1 and the
// ratio is well defined. It returns the integer sums (p, q) of one
// critical cycle, or (0, 0) when the graph is acyclic. The ratio p/q is
// exact and belongs to a real cycle, so the lower bound stays sound.
//
// The search is Howard's policy iteration, run on the edges inside the
// graph's strongly connected components: an edge between two components
// lies on no cycle, and inside a component every node keeps an out-edge,
// which the policy needs. Ratios are compared by cross-multiplying
// integers, so no tolerance enters the result.
func maxCycleRatio(n int, edges []depEdge, s *cycleScratch) (p, q int64, err error) {
	if len(edges) == 0 {
		return 0, 0, nil
	}
	s.sccs(n, edges)

	// Initial policy: each node's heaviest edge inside its component.
	s.pol = grow(s.pol, n)
	cyclic := false
	for v := 0; v < n; v++ {
		s.pol[v] = -1
		for _, ei := range s.adj[s.start[v]:s.start[v+1]] {
			e := &edges[ei]
			if s.comp[e.to] == s.comp[v] && (s.pol[v] < 0 || e.delta > edges[s.pol[v]].delta) {
				s.pol[v] = ei
			}
		}
		cyclic = cyclic || s.pol[v] >= 0
	}
	if !cyclic {
		return 0, 0, nil
	}

	s.etaP, s.etaQ = grow(s.etaP, n), grow(s.etaQ, n)
	s.x, s.state = grow(s.x, n), grow(s.state, n)
	// Policy iteration terminates on its own; the cap only turns a defect
	// into an error instead of a hang.
	limit := 64 + 4*(n+len(edges))
	for iter := 0; iter < limit; iter++ {
		p, q = s.evaluate(n, edges)
		if !s.improve(n, edges) {
			return p, q, nil
		}
	}
	return 0, 0, fmt.Errorf("bound: dependence cycle ratio did not converge in %d policy iterations", limit)
}

// sccs builds the CSR out-adjacency of the quotient graph and labels
// every node with its strongly connected component (iterative Tarjan).
func (s *cycleScratch) sccs(n int, edges []depEdge) {
	s.start = grow(s.start, n+1)
	clear(s.start)
	for _, e := range edges {
		s.start[e.from+1]++
	}
	for v := 0; v < n; v++ {
		s.start[v+1] += s.start[v]
	}
	s.adj, s.next = grow(s.adj, len(edges)), grow(s.next, n)
	copy(s.next, s.start[:n])
	for i, e := range edges {
		s.adj[s.next[e.from]] = int32(i)
		s.next[e.from]++
	}

	s.index, s.low, s.comp = grow(s.index, n), grow(s.low, n), grow(s.comp, n)
	for v := range s.index {
		s.index[v] = -1
	}
	s.stack, s.calls = s.stack[:0], s.calls[:0]
	counter := int32(0)
	discover := func(v int32) {
		s.index[v], s.low[v], s.comp[v] = counter, counter, -1
		s.next[v] = s.start[v]
		counter++
		s.stack = append(s.stack, v)
		s.calls = append(s.calls, v)
	}
	for root := int32(0); root < int32(n); root++ {
		if s.index[root] >= 0 {
			continue
		}
		discover(root)
		for len(s.calls) > 0 {
			v := s.calls[len(s.calls)-1]
			if s.next[v] < s.start[v+1] {
				w := int32(edges[s.adj[s.next[v]]].to)
				s.next[v]++
				if s.index[w] < 0 {
					discover(w)
				} else if s.comp[w] < 0 && s.index[w] < s.low[v] { // w is on the stack
					s.low[v] = s.index[w]
				}
				continue
			}
			s.calls = s.calls[:len(s.calls)-1]
			if len(s.calls) > 0 {
				if u := s.calls[len(s.calls)-1]; s.low[v] < s.low[u] {
					s.low[u] = s.low[v]
				}
			}
			if s.low[v] == s.index[v] {
				for {
					w := s.stack[len(s.stack)-1]
					s.stack = s.stack[:len(s.stack)-1]
					s.comp[w] = v
					if w == v {
						break
					}
				}
			}
		}
	}
}

// evaluate is the value-determination step of policy iteration. Following
// its policy edge from any node eventually enters exactly one policy
// cycle; the node's ratio is that cycle's ratio (in lowest terms) and its
// potential is the path weight q·Σdelta − p·Σlag to the cycle's anchor,
// its lowest-numbered node. That anchor makes the values a function of
// the policy alone: a cycle that survives a policy change keeps its
// anchor, as the termination argument needs. evaluate returns the raw
// sums of the policy's best cycle.
func (s *cycleScratch) evaluate(n int, edges []depEdge) (bestP, bestQ int64) {
	clear(s.state[:n])
	for root := 0; root < n; root++ {
		if s.pol[root] < 0 || s.state[root] != unseen {
			continue
		}
		path := s.path[:0]
		v := int32(root)
		for s.state[v] == unseen {
			s.state[v] = onPath
			path = append(path, v)
			v = int32(edges[s.pol[v]].to)
		}
		if s.state[v] == onPath {
			// The walk closed a new policy cycle starting at v.
			k := len(path) - 1
			for path[k] != v {
				k--
			}
			cyc := path[k:]
			var sumP, sumQ int64
			anchor := 0
			for i, c := range cyc {
				e := &edges[s.pol[c]]
				sumP += e.delta
				sumQ += int64(e.lag)
				if c < cyc[anchor] {
					anchor = i
				}
			}
			if sumQ == 0 {
				// carriedEdges points every same-iteration edge forward.
				panic("bound: dependence cycle with no iteration lag")
			}
			if bestQ == 0 || sumP*bestQ > bestP*sumQ {
				bestP, bestQ = sumP, sumQ
			}
			g := gcd(sumP, sumQ)
			a := cyc[anchor]
			s.etaP[a], s.etaQ[a], s.x[a], s.state[a] = sumP/g, sumQ/g, 0, settled
			// Settle the rest of the cycle backwards from the anchor.
			for i := len(cyc) - 1; i > 0; i-- {
				s.settle(cyc[(anchor+i)%len(cyc)], edges)
			}
			path = path[:k]
		}
		for i := len(path) - 1; i >= 0; i-- {
			s.settle(path[i], edges)
		}
		s.path = path
	}
	return bestP, bestQ
}

// settle gives v the ratio of its policy successor and the potential
// through its policy edge; the successor must already be settled.
func (s *cycleScratch) settle(v int32, edges []depEdge) {
	e := &edges[s.pol[v]]
	p, q := s.etaP[e.to], s.etaQ[e.to]
	s.etaP[v], s.etaQ[v] = p, q
	s.x[v] = q*e.delta - p*int64(e.lag) + s.x[e.to]
	s.state[v] = settled
}

// improve is the policy-improvement step; it reports whether the policy
// changed. Every node first moves to the successor reaching the highest
// ratio, if that beats its own. Only when no node can do so does a node
// move to an equal-ratio successor offering a strictly larger potential.
func (s *cycleScratch) improve(n int, edges []depEdge) bool {
	changed := false
	for v := 0; v < n; v++ {
		if s.pol[v] < 0 {
			continue
		}
		bp, bq, best := s.etaP[v], s.etaQ[v], int32(-1)
		for _, ei := range s.adj[s.start[v]:s.start[v+1]] {
			t := edges[ei].to
			if s.comp[t] == s.comp[v] && s.etaP[t]*bq > bp*s.etaQ[t] {
				bp, bq, best = s.etaP[t], s.etaQ[t], ei
			}
		}
		if best >= 0 {
			s.pol[v], changed = best, true
		}
	}
	if changed {
		return true
	}
	for v := 0; v < n; v++ {
		if s.pol[v] < 0 {
			continue
		}
		p, q := s.etaP[v], s.etaQ[v]
		bx, best := s.x[v], int32(-1)
		for _, ei := range s.adj[s.start[v]:s.start[v+1]] {
			e := &edges[ei]
			if s.comp[e.to] != s.comp[v] || s.etaP[e.to] != p || s.etaQ[e.to] != q {
				continue
			}
			if x := q*e.delta - p*int64(e.lag) + s.x[e.to]; x > bx {
				bx, best = x, ei
			}
		}
		if best >= 0 {
			s.pol[v], changed = best, true
		}
	}
	return changed
}

// gcd returns the greatest common divisor of a ≥ 0 and b > 0.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// critPath computes the latency-weighted critical path of a single
// iteration from clean state: the completion time of the latest producer
// when every register starts ready.
func critPath(chains []instChain) int64 {
	var t [numRegs]int64
	var ready [numRegs]bool
	var crit int64
	// fin[i] tracked implicitly through the register times.
	for i := range chains {
		c := &chains[i]
		switch c.kind {
		case chainZero, chainFree:
			for _, w := range c.writes {
				t[w], ready[w] = 0, false
			}
			continue
		case chainElim:
			var v int64
			ok := false
			if len(c.data) > 0 && ready[c.data[0]] {
				v, ok = t[c.data[0]], true
			}
			for _, w := range c.writes {
				t[w], ready[w] = v, ok
			}
			if v > crit {
				crit = v
			}
			continue
		}
		var fin int64
		if c.hasCompute || c.hasLoad {
			var dataBase, addrBase int64
			for _, r := range c.data {
				if ready[r] && t[r] > dataBase {
					dataBase = t[r]
				}
			}
			for _, r := range c.addr {
				if ready[r] && t[r] > addrBase {
					addrBase = t[r]
				}
			}
			switch {
			case c.hasCompute && c.hasLoad:
				loadDone := addrBase + c.loadLat
				if dataBase > loadDone {
					loadDone = dataBase
				}
				fin = loadDone + c.computeSum
			case c.hasCompute:
				fin = dataBase + c.computeSum
			default: // pure load
				fin = addrBase + c.loadLat
			}
		}
		for _, w := range c.writes {
			t[w], ready[w] = fin, true
		}
		if fin > crit {
			crit = fin
		}
	}
	return crit
}

// Scratch is the working memory of bounds analyses; a warm analysis
// allocates nothing for its dependence graph. A goroutine that analyzes
// many blocks may keep its own (the prediction workers do); Analyze and
// FromPrepared take one from a pool. The zero value is ready to use.
type Scratch struct {
	entries []*memo.PreparedInst
	chains  []instChain
	edges   []depEdge
	cycles  cycleScratch
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// chain computes the dependence-chain statistics of a block under the
// simulator-congruent model: the single-iteration critical path (cycles
// from clean state) and a critical dependence cycle of the steady state,
// as its latency and iteration sums (p, q); the loop-carried dependence
// height is p/q cycles per iteration, and q = 0 means no cycle. It is the
// shared computation behind blocklint's dependence facts and the
// dependence term of the static lower bound.
func chain(entries []*memo.PreparedInst, s *Scratch) (crit int, p, q int64, err error) {
	s.chains = buildChains(s.chains, entries)
	s.edges = carriedEdges(s.edges, s.chains)
	p, q, err = maxCycleRatio(len(s.chains), s.edges, &s.cycles)
	return int(critPath(s.chains)), p, q, err
}
