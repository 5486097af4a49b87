//go:build !amd64

package cutlass

// haveF16C is never set here: the Go row pass is storeRow's only body.
// The variable exists so that tests forcing the Go body build on every
// architecture.
var haveF16C = false

func (e *Epilogue) storeRowSIMD(dst, acc, bias []float32) int { return 0 }
