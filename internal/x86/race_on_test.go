//go:build race

package x86

const raceEnabled = true
