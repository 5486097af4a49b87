//go:build !amd64

package cpu

func detect() (avx2, f16c bool) { return false, false }
