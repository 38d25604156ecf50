//go:build race

package inject

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
