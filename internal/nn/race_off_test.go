//go:build !race

package nn

// raceEnabled reports a -race build, where instrumentation allocates.
const raceEnabled = false
