//go:build race

package sim

// raceEnabled reports a -race build, where instrumentation allocates.
const raceEnabled = true
