//go:build !race

package blocklint

const raceEnabled = false
