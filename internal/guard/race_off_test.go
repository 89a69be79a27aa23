//go:build !race

package guard

// raceEnabled reports a -race build, where instrumentation allocates.
const raceEnabled = false
