//go:build race

package explore

// raceEnabled reports a -race build, where instrumentation allocates.
const raceEnabled = true
