package memo

// RaceEnabled lets the external tests shrink their corpus under -race.
const RaceEnabled = raceEnabled
