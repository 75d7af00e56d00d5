//go:build race

package route

// raceEnabled gates the allocation pins that pass through a sync.Pool:
// under the race detector sync.Pool randomly drops one in four Puts
// (sync/pool.go), so a warm pool still reallocates and the count flakes.
const raceEnabled = true
