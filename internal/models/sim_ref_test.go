package models

// simulateRef is the reference cycle-by-cycle model scheduler the event
// core replaced, kept as the oracle for the equivalence tests: it rescans
// every reservation-station entry each cycle and allocates a dependence
// slice per µop. It spins to its runaway guard (returning more than
// simMaxCycles) on a block that can never finish.
func simulateRef(insts []simInst, width, nports, iters int, trace *[]ScheduleEntry) int64 {
	type flight struct {
		inst, iter int
		uop        int
		deps       []int32
		issued     bool
		done       bool
		doneAt     int64
	}

	var all []flight
	var lastWriter [simRegs]int32
	for i := range lastWriter {
		lastWriter[i] = -1
	}

	// Unroll and build dependence edges.
	total := len(insts) * iters
	uopIdx := make([][]int32, total)
	for k := 0; k < total; k++ {
		in := &insts[k%len(insts)]
		iter := k / len(insts)
		if in.zeroIdiom {
			for _, w := range in.writes {
				lastWriter[w] = -1
			}
			continue
		}
		if in.elimMove {
			src := int32(-1)
			if len(in.data) > 0 {
				src = lastWriter[in.data[0]]
			}
			for _, w := range in.writes {
				lastWriter[w] = src
			}
			continue
		}
		var last, loadID int32 = -1, -1
		hasLoad := false
		for u := range in.uops {
			if in.uops[u].isLoad {
				hasLoad = true
			}
		}
		for u := range in.uops {
			f := flight{inst: k % len(insts), iter: iter, uop: u}
			if in.uops[u].isLoad {
				// Loads wait only on address registers — this is what lets
				// hardware (and IACA) hoist an independent load ahead of
				// the dependent computation that consumes it.
				for _, r := range in.addr {
					if p := lastWriter[r]; p >= 0 {
						f.deps = append(f.deps, p)
					}
				}
			} else {
				for _, r := range in.data {
					if p := lastWriter[r]; p >= 0 {
						f.deps = append(f.deps, p)
					}
				}
				if !hasLoad {
					// Store-address computation and fused load+op shapes
					// consume the addressing registers directly.
					for _, r := range in.addr {
						if p := lastWriter[r]; p >= 0 {
							f.deps = append(f.deps, p)
						}
					}
				}
				if loadID >= 0 {
					f.deps = append(f.deps, loadID)
				}
				if last >= 0 {
					f.deps = append(f.deps, last)
				}
			}
			id := int32(len(all))
			all = append(all, f)
			uopIdx[k] = append(uopIdx[k], id)
			if in.uops[u].isLoad {
				loadID = id
			} else {
				last = id
			}
		}
		if len(uopIdx[k]) > 0 {
			producer := uopIdx[k][len(uopIdx[k])-1]
			for _, w := range in.writes {
				lastWriter[w] = producer
			}
		}
	}

	if len(all) == 0 {
		// Pure zero-idiom/eliminated blocks retire at the rename width.
		fusedTotal := 0
		for k := 0; k < total; k++ {
			fusedTotal += insts[k%len(insts)].fused
		}
		return int64((fusedTotal + width - 1) / width)
	}

	// Cycle loop: allocate (width fused µops/cycle), issue oldest-first.
	var (
		cycle     int64
		nextInst  int // next unrolled instruction to allocate
		allocated int // µops allocated so far
		completed int
		rs        []int32
		portBusy  = make([]int64, nports)
		portUsed  = make([]bool, nports)
	)
	fusedOf := func(k int) int { return insts[k%len(insts)].fused }

	const window = 192 // ROB-ish bound on in-flight µops
	inFlight := 0

	for completed < len(all) {
		// Allocate.
		budget := width
		for nextInst < total && budget > 0 {
			f := fusedOf(nextInst)
			if f > budget || inFlight+len(uopIdx[nextInst]) > window {
				break
			}
			budget -= f
			for _, id := range uopIdx[nextInst] {
				rs = append(rs, id)
				inFlight++
			}
			nextInst++
		}

		// Issue.
		for p := range portUsed {
			portUsed[p] = false
		}
		w := 0
		for _, id := range rs {
			u := &all[id]
			spec := &insts[u.inst].uops[u.uop]
			ready := true
			for _, d := range u.deps {
				if !all[d].done || all[d].doneAt > cycle {
					ready = false
					break
				}
			}
			if !ready {
				rs[w] = id
				w++
				continue
			}
			port := -1
			for p := 0; p < nports; p++ {
				if spec.ports.Has(p) && !portUsed[p] && portBusy[p] <= cycle {
					port = p
					break
				}
			}
			if port < 0 {
				rs[w] = id
				w++
				continue
			}
			portUsed[port] = true
			if spec.occ > 0 {
				portBusy[port] = cycle + int64(spec.occ)
			}
			u.issued = true
			u.done = true
			u.doneAt = cycle + int64(spec.lat)
			if trace != nil {
				*trace = append(*trace, ScheduleEntry{
					Iteration: u.iter,
					Inst:      insts[u.inst].text,
					Uop:       spec.name(),
					Dispatch:  cycle,
					Complete:  u.doneAt,
				})
			}
			completed++
			inFlight--
		}
		rs = rs[:w]
		cycle++

		if cycle > 10_000_000 {
			break // runaway guard
		}
	}

	// Drain: account for the last completions.
	var last int64
	for i := range all {
		if all[i].doneAt > last {
			last = all[i].doneAt
		}
	}
	if last+1 > cycle {
		cycle = last + 1
	}
	_ = allocated
	return cycle
}

// derivedRef is derivedPrediction over the reference scheduler.
func derivedRef(insts []simInst, width, nports, blockLen int) float64 {
	k := 12
	if blockLen > 0 && 100/blockLen > k {
		k = 100 / blockLen
	}
	if k > 60 {
		k = 60
	}
	c1 := simulateRef(insts, width, nports, k, nil)
	c2 := simulateRef(insts, width, nports, 2*k, nil)
	tp := float64(c2-c1) / float64(k)
	if tp < 0 {
		tp = float64(c2) / float64(2*k)
	}
	return tp
}
