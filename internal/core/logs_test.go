package core

import (
	"math"
	"math/bits"
	"testing"
)

// The hand-written logarithms the rules used before they called the
// standard library, kept as references.

// log2fRef returns log₂ x for x > 0: the exponent by halving or
// doubling into [1, 2), then 20 fractional bits by repeated squaring.
func log2fRef(x float64) float64 {
	n := 0
	for x >= 2 {
		x /= 2
		n++
	}
	for x < 1 {
		x *= 2
		n--
	}
	frac, add := 0.0, 0.5
	for i := 0; i < 20; i++ {
		x *= x
		if x >= 2 {
			frac += add
			x /= 2
		}
		add /= 2
	}
	return float64(n) + frac
}

// roundToIntRef rounds halves away from zero.
func roundToIntRef(x float64) int {
	if x >= 0 {
		return int(x + 0.5)
	}
	return -int(-x + 0.5)
}

// log2Floor64Ref returns ⌊log₂ x⌋ for x ≥ 1.
func log2Floor64Ref(x int64) int {
	k := -1
	for ; x > 0; x >>= 1 {
		k++
	}
	return k
}

// TestLog2fAccuracy checks math.Log2, which the Error Detection
// recompute k = round(k + 3 − log₂ ℓ) uses, at known values, and the
// recompute against the references exhaustively where the rules use it:
// every positive int16 load ℓ and every k a search can conclude with.
func TestLog2fAccuracy(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0}, {2, 1}, {4, 2}, {8, 3}, {32, 5}, {3, 1.584962500721156},
	}
	for _, c := range cases {
		for _, f := range []struct {
			name string
			log  func(float64) float64
		}{{"math.Log2", math.Log2}, {"log2fRef", log2fRef}} {
			if got := f.log(c.x); got < c.want-1e-4 || got > c.want+1e-4 {
				t.Errorf("%s(%v) = %v, want %v", f.name, c.x, got, c.want)
			}
		}
	}
	for l := int16(1); l > 0; l++ {
		for k := int16(-1); k <= maxSearchK; k++ {
			if got, want := edRecompute(k, l), int16(roundToIntRef(float64(k)+3-log2fRef(float64(l)))); got != want {
				t.Fatalf("edRecompute(%d, %d) = %d, reference %d", k, l, got, want)
			}
		}
	}
}

// TestRoundToInt checks that math.Round, which the recompute uses,
// rounds halves away from zero like the reference.
func TestRoundToInt(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{{0.4, 0}, {0.5, 1}, {1.6, 2}, {-0.4, 0}, {-0.5, -1}, {-0.6, -1}, {9.5, 10}, {-9.5, -10}}
	for _, c := range cases {
		if got := int(math.Round(c.x)); got != c.want {
			t.Errorf("math.Round(%v) = %d, want %d", c.x, got, c.want)
		}
		if got := roundToIntRef(c.x); got != c.want {
			t.Errorf("roundToIntRef(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestLog2Floor64 checks bits.Len64(x)-1, the floor CountExact's
// refinement uses, at known values and against the reference at every
// power of two ±1 below 2⁶³.
func TestLog2Floor64(t *testing.T) {
	cases := []struct {
		x    int64
		want int
	}{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}}
	for _, c := range cases {
		if got := bits.Len64(uint64(c.x)) - 1; got != c.want {
			t.Errorf("bits.Len64(%d)-1 = %d, want %d", c.x, got, c.want)
		}
	}
	for i := 0; i < 64; i++ {
		p := uint64(1) << i
		for _, x := range []uint64{p - 1, p, p + 1} {
			if x < 1 || x >= 1<<63 {
				continue
			}
			if got, want := bits.Len64(x)-1, log2Floor64Ref(int64(x)); got != want {
				t.Fatalf("bits.Len64(%d)-1 = %d, reference %d", x, got, want)
			}
		}
	}
}
