// Package cpu reports the x86 extensions that the kernels' assembly
// bodies need. It is the one place that reads CPUID: a package with an
// assembly body copies the flag it needs into an unexported variable
// at initialization, which its tests can clear to check the Go body.
package cpu

// AVX2 reports AVX and AVX2 with YMM state saved by the operating
// system. F16C reports the half-precision conversions
// (VCVTPS2PH, VCVTPH2PS) on the same condition. Neither is in the amd64
// baseline (GOAMD64=v1), and both are false on other architectures.
var AVX2, F16C = detect()
