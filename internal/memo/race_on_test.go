//go:build race

package memo

const raceEnabled = true
