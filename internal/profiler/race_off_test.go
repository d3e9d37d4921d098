//go:build !race

package profiler_test

const raceEnabled = false
