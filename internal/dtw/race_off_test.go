//go:build !race

package dtw

const raceEnabled = false
