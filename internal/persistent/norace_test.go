//go:build !race

package persistent

const raceEnabled = false
