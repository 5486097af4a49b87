//go:build !amd64

package rt

// haveAVX2 is never set here: the Go loop is maxRow's only body. The
// variable exists so that tests forcing the Go loop build on every
// architecture.
var haveAVX2 = false

func maxRowSIMD(best, x []float32) int { return 0 }
