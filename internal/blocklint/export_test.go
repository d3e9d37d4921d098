package blocklint

// passCounts returns how many analyze calls that reached the functional
// pass reused a scratch's last one, and how many ran their own.
func passCounts() (hits, runs int64) { return passHits.Load(), passRuns.Load() }
