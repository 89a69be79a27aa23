//go:build !race

package distributed

// raceEnabled reports a -race build, where instrumentation allocates.
const raceEnabled = false
