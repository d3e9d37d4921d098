package stats

import "math"

// This file holds the incremental aggregators the sharded evaluation
// pipeline streams into: each shard's results are folded in, in record
// order, as the shard completes or resumes, so summary tables are
// produced without re-walking the per-record slices. All aggregators
// follow the package NaN policy (NaN inputs are dropped). They are not
// mergeable across shards: a distributed run ships the per-record data
// and folds it once, on replay.
//
// Determinism note: Running/RunningWeighted accumulate with the same
// left-to-right float additions as Mean/WeightedMean, so feeding the same
// values in the same order yields bit-identical results — which is what
// keeps resumed runs byte-identical to uninterrupted ones.

// Running accumulates an unweighted mean incrementally.
type Running struct {
	sum float64
	n   int
}

// Add folds one value in; NaN is ignored.
func (r *Running) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	r.sum += x
	r.n++
}

// N returns the number of accumulated values.
func (r *Running) N() int { return r.n }

// Mean returns the accumulated mean (0 if nothing was accumulated,
// matching Mean on an empty slice).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// RunningWeighted accumulates a frequency-weighted mean incrementally.
type RunningWeighted struct {
	sum float64
	w   float64
	n   int
}

// Add folds one (value, weight) pair in; NaN values are ignored.
func (r *RunningWeighted) Add(x float64, weight uint64) {
	if math.IsNaN(x) {
		return
	}
	r.sum += x * float64(weight)
	r.w += float64(weight)
	r.n++
}

// N returns the number of accumulated values.
func (r *RunningWeighted) N() int { return r.n }

// Mean returns the accumulated weighted mean (0 if the accumulated
// weights sum to 0, matching WeightedMean).
func (r *RunningWeighted) Mean() float64 {
	if r.w == 0 {
		return 0
	}
	return r.sum / r.w
}

// TauAcc accumulates (prediction, measurement) pairs for Kendall's tau.
// Exact tau needs every pair at evaluation time, so the accumulator
// retains the values it is fed (O(n) memory — but only two float64 per
// pair, not the full per-record bookkeeping of the harness); what it buys
// is an incrementally fed interface: shards Add their pairs as they
// complete.
type TauAcc struct {
	a, b []float64
}

// Add folds one pair in; pairs with NaN on either side are dropped, as
// KendallTau itself would drop them.
func (t *TauAcc) Add(pred, meas float64) {
	if math.IsNaN(pred) || math.IsNaN(meas) {
		return
	}
	t.a = append(t.a, pred)
	t.b = append(t.b, meas)
}

// N returns the number of accumulated pairs.
func (t *TauAcc) N() int { return len(t.a) }

// Value computes Kendall's tau over the accumulated pairs (0 if fewer
// than two pairs were accumulated, matching KendallTau).
func (t *TauAcc) Value() float64 { return KendallTau(t.a, t.b) }
