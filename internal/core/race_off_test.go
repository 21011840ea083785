//go:build !race

package core

// raceEnabled reports whether this test binary runs under the race
// detector; see race_on_test.go.
const raceEnabled = false
