//go:build race

package profiler_test

const raceEnabled = true
