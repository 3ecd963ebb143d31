//go:build race

package fleet

// raceEnabled reports a -race build, where sync.Pool drops a share of what
// is put back and allocation counts stop meaning anything.
const raceEnabled = true
