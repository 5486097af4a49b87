//go:build race

package cutlass

const raceEnabled = true
