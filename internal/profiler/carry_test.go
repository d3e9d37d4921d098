package profiler_test

import (
	"testing"

	"bhive/internal/profiler"
)

// TestProfileEachStaleness measures a sequence of blocks with one pooled
// group, so each block's keys run on the machine the previous block left —
// its graph retimed for the last key and its caches warm — and requires
// every result to equal a fresh profiler's Profile. Every key after the
// first retimes the block's graph and restores its warm-up, except Ice
// Lake's first key, whose L1 geometry differs, and the counts say so. With
// FTZ/DAZ off, subnormal items are retimed too. The machine tests pin each
// invalidation point on its own (TestCarryInvalidation).
func TestProfileEachStaleness(t *testing.T) {
	subnormal := profiler.DefaultOptions()
	subnormal.DisableSubnormals = false
	blocks := groupBlocks(t)
	for _, tc := range []struct {
		name string
		opts profiler.Options
	}{
		{"default", profiler.DefaultOptions()},
		{"subnormals", subnormal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			met := new(profiler.Metrics)
			group := groupKeys(tc.opts, met)
			got := make([]profiler.Result, len(group))
			for bi, b := range blocks {
				profiler.ProfileEach(b, group, got)
				for ki, p := range groupKeys(tc.opts, nil) {
					if want := p.Profile(b); !sameResult(got[ki], want) {
						t.Fatalf("block %d on %s after block %d: ProfileEach %+v, fresh Profile %+v",
							bi, p.CPU.Name, bi-1, got[ki], want)
					}
				}
			}
			s := met.Snapshot()
			timed := s.GraphsBuilt + s.GraphsRetimed
			if s.WarmWalks+s.WarmRestores != timed || timed > s.PassServed {
				t.Errorf("%d graphs built, %d retimed, %d warm-ups walked, %d restored for %d measurements",
					s.GraphsBuilt, s.GraphsRetimed, s.WarmWalks, s.WarmRestores, s.PassServed)
			}
			// Each timed pass builds one graph (the six xval keys and Ice
			// Lake share µop shapes) and walks twice: once on the first
			// key, once on Ice Lake's geometry.
			if s.GraphsRetimed == 0 || s.WarmRestores == 0 || s.GraphsBuilt > s.Passes || s.WarmWalks > 2*s.Passes {
				t.Errorf("%d passes: %d graphs built, %d retimed; %d warm-ups walked, %d restored",
					s.Passes, s.GraphsBuilt, s.GraphsRetimed, s.WarmWalks, s.WarmRestores)
			}
			t.Logf("%d blocks, %d passes: %d graphs built, %d retimed; %d warm-ups walked, %d restored",
				len(blocks), s.Passes, s.GraphsBuilt, s.GraphsRetimed, s.WarmWalks, s.WarmRestores)
		})
	}
}
