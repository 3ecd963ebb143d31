//go:build !race

package policy

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
