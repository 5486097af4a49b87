package fp16

import (
	"math"
	"math/rand"
	"testing"
)

// roundTrip is the definition Round is pinned to: the store-to-half,
// load-from-half round trip.
func roundTrip(f float32) float32 { return ToFloat32(FromFloat32(f)) }

// checkRound compares Round with the round trip on one bit pattern,
// bit for bit (NaN payloads and the sign of zero included).
func checkRound(t *testing.T, bits uint32) {
	t.Helper()
	f := math.Float32frombits(bits)
	if got, want := math.Float32bits(Round(f)), math.Float32bits(roundTrip(f)); got != want {
		t.Fatalf("Round(%#08x = %g) = %#08x, round trip gives %#08x", bits, f, got, want)
	}
}

// Every half value is a fixed point, and both float32 neighbours of
// each round the way the round trip does.
func TestRoundAllHalvesAndNeighbours(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		bits := math.Float32bits(ToFloat32(Float16(h)))
		checkRound(t, bits)
		checkRound(t, bits+1)
		checkRound(t, bits-1)
		if !IsNaN(Float16(h)) {
			if got := math.Float32bits(Round(math.Float32frombits(bits))); got != bits {
				t.Fatalf("half %#04x is not a fixed point: %#08x -> %#08x", h, bits, got)
			}
		}
	}
}

// The seams between Round's regimes, each with both signs and both
// float32 neighbours.
func TestRoundSeams(t *testing.T) {
	pow := func(e int) uint32 { return math.Float32bits(float32(math.Ldexp(1, e))) }
	seams := []uint32{
		0,                      // ±0
		1,                      // smallest float32 subnormal
		0x007FFFFF, 0x00800000, // float32 subnormal/normal boundary
		pow(-25), pow(-25) + 1, // IEEE would round the second up; we flush
		pow(-24) - 1, pow(-24), // flush-to-zero boundary
		pow(-23) - 1, pow(-23), // first subnormal tie region
		pow(-14) - 1, pow(-14), // subnormal/normal boundary
		math.Float32bits(65504),     // largest half
		math.Float32bits(65520) - 1, // last float32 that rounds to 65504
		math.Float32bits(65520),     // first that overflows to Inf
		math.Float32bits(65536),
		math.Float32bits(math.MaxFloat32),
		0x7F800000,                                     // Inf
		0x7F800001, 0x7FC00000, 0x7FC12345, 0x7FFFFFFF, // NaNs with payload
	}
	// Ties in the subnormal range: odd multiples of 2^-25.
	for k := uint32(1); k < 64; k += 2 {
		seams = append(seams, math.Float32bits(float32(k)*float32(math.Ldexp(1, -25))))
	}
	for _, s := range seams {
		for _, sign := range []uint32{0, 0x80000000} {
			for _, d := range []uint32{0, 1, ^uint32(0)} {
				checkRound(t, (s+d)&0x7FFFFFFF|sign)
			}
		}
	}
	// The documented departure from IEEE: (2^-25, 2^-24) flushes to zero.
	if got := Round(math.Float32frombits(pow(-24) - 1)); got != 0 {
		t.Fatalf("just below 2^-24 rounds to %g, want 0", got)
	}
	if got := math.Float32bits(Round(-math.Float32frombits(pow(-25) + 1))); got != 0x80000000 {
		t.Fatalf("just below -2^-25 rounds to %#08x, want -0", got)
	}
}

func TestRoundRandomBits(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 1<<22; i++ {
		checkRound(t, rng.Uint32())
	}
}

// Quantize agrees with the round trip on random magnitudes and on every
// half value and both its float32 neighbours, each beside a zero, so the
// select between a normal half and a zero sees both orders.
func TestQuantizeMatchesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]float32, 4096)
	for i := range src {
		src[i] = float32(rng.NormFloat64()) * float32(math.Ldexp(1, rng.Intn(48)-30))
	}
	for h := 0; h < 1<<16; h++ {
		bits := math.Float32bits(ToFloat32(Float16(h)))
		for _, b := range []uint32{bits, bits + 1, bits - 1} {
			src = append(src, math.Float32frombits(b), math.Float32frombits(uint32(h%2)<<31))
		}
	}
	want := make([]float32, len(src))
	for i, f := range src {
		want[i] = roundTrip(f)
	}
	Quantize(src)
	for i := range src {
		if math.Float32bits(src[i]) != math.Float32bits(want[i]) {
			t.Fatalf("element %d: Quantize gives %g, round trip %g", i, src[i], want[i])
		}
	}
}

// The full sweep: every float32 bit pattern, on two goroutines.
func TestRoundExhaustive(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("2^32 inputs: skipped under -short and -race")
	}
	// Each goroutine reports the first pattern it disagrees on, or ok.
	type verdict struct {
		bits uint32
		ok   bool
	}
	done := make(chan verdict, 2)
	for _, sign := range []uint32{0, 0x80000000} {
		go func() {
			for abs := uint32(0); abs < 1<<31; abs++ {
				f := math.Float32frombits(abs | sign)
				if math.Float32bits(Round(f)) != math.Float32bits(roundTrip(f)) {
					done <- verdict{bits: abs | sign}
					return
				}
			}
			done <- verdict{ok: true}
		}()
	}
	for i := 0; i < 2; i++ {
		if v := <-done; !v.ok {
			checkRound(t, v.bits)
		}
	}
}

func BenchmarkQuantize(b *testing.B) {
	src := make([]float32, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range src {
		src[i] = float32(rng.NormFloat64()) * 0.05
	}
	b.SetBytes(int64(4 * len(src)))
	for i := 0; i < b.N; i++ {
		Quantize(src)
	}
}
