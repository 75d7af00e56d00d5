//go:build race

package align

// raceEnabled gates the steady-state allocation test: under the race
// detector sync.Pool randomly drops one in four Puts (sync/pool.go), so
// a warm row still reallocates and a 0 allocs/op assertion flakes.
const raceEnabled = true
