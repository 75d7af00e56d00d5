//go:build race

package dtw

// raceEnabled gates the steady-state allocation test: under the race
// detector sync.Pool randomly drops one in four Puts (sync/pool.go), so
// warm diagonals still reallocate and a 0 allocs/op assertion flakes.
const raceEnabled = true
