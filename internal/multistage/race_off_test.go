//go:build !race

package multistage

const raceEnabled = false
