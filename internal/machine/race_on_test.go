//go:build race

package machine

// The race detector slows the corpus-wide tests several-fold; they shrink
// their corpus under it.
const raceEnabled = true
