//go:build race

package core

// raceEnabled reports whether this test binary runs under the race
// detector, whose instrumentation makes allocation guards meaningless.
const raceEnabled = true
