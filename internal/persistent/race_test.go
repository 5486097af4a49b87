//go:build race

package persistent

const raceEnabled = true
