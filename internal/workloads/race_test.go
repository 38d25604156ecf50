//go:build race

package workloads_test

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
