//go:build race

package multistage

// raceEnabled gates the steady-state allocation test: under the race
// detector sync.Pool randomly drops one in four Puts (sync/pool.go), so
// a warm workspace still reallocates and the allocation count flakes.
const raceEnabled = true
