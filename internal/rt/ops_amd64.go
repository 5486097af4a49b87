package rt

import "bolt/internal/cpu"

// haveAVX2 selects maxRowAVX2 for maxRow's whole 8-lane groups where
// the processor has AVX2 (read once at initialization).
var haveAVX2 = cpu.AVX2

// maxRowSIMD runs maxRowAVX2 over the longest prefix of whole 8-lane
// groups and returns its length, 0 where it did nothing. x is as long
// as best.
func maxRowSIMD(best, x []float32) int {
	n := len(best) &^ 7
	if !haveAVX2 || n == 0 {
		return 0
	}
	maxRowAVX2(&best[0], &x[0], n)
	return n
}

// maxRowAVX2 is maxRow over n elements, n a positive multiple of 8:
// VMAXPS with x as the first source, which returns x where x > best and
// best otherwise (a NaN in either, or two zeros), maxRow's rule.
//
//go:noescape
func maxRowAVX2(best, x *float32, n int)
