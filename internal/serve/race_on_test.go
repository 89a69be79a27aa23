//go:build race

package serve

// raceEnabled reports a -race build, where instrumentation allocates.
const raceEnabled = true
