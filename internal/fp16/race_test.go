//go:build race

package fp16

const raceEnabled = true
