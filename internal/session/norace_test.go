//go:build !race

package session

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false
