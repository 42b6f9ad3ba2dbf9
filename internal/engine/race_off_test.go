//go:build !race

package engine

// raceEnabled reports a -race build, whose instrumentation allocates
// and so breaks the allocation pins.
const raceEnabled = false
