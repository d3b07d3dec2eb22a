//go:build race

package dbest_test

// raceEnabled reports whether the race detector is on; it allocates on its
// own, so allocation gates skip under -race.
const raceEnabled = true
