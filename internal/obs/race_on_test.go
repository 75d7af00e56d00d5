//go:build race

package obs

// raceEnabled gates the allocation pins: the race detector's runtime
// allocates where the plain runtime does not.
const raceEnabled = true
