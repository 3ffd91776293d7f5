package frand

import (
	"math"
	"testing"
)

// TestFillNormMatchesPerDraw checks FillNorm against a NormFloat64 loop
// for every test seed and several lengths (crossing the 607-entry ring
// and the ziggurat's slow path), then checks the next Uint64 so the
// generator state after the call is proven equal too.
func TestFillNormMatchesPerDraw(t *testing.T) {
	for _, seed := range testSeeds {
		for _, n := range []int{0, 1, 607, 2000} {
			got, want := NewRand(seed), NewRand(seed)
			// Offset the ring position so the wrap points vary.
			for i := 0; i < int(uint64(seed)%13); i++ {
				got.Uint64()
				want.Uint64()
			}
			dst := make([]float64, n)
			got.FillNorm(dst)
			for i := range dst {
				if w := want.NormFloat64(); math.Float64bits(dst[i]) != math.Float64bits(w) {
					t.Fatalf("seed %d n %d draw %d: FillNorm %v != NormFloat64 %v", seed, n, i, dst[i], w)
				}
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d n %d: next Uint64 %d != %d", seed, n, g, w)
			}
		}
	}
}

// TestFillNormSlowPath makes sure the differential above is not
// vacuous: the fills it compares take the ziggurat's rewind path.
func TestFillNormSlowPath(t *testing.T) {
	r := NewRand(1)
	slow := 0
	for i := 0; i < 2000; i++ {
		j := int32(r.Uint32())
		if absInt32(j) >= kn[j&0x7F] {
			slow++
		}
	}
	if slow == 0 {
		t.Fatal("2000 draws never left the ziggurat fast path")
	}
}

// skipPerDraw is the per-draw loop SkipAtLeast must reproduce.
func skipPerDraw(r *Rand, p float64, n int) int {
	for k := 0; k < n; k++ {
		if r.Float64() < p {
			return k
		}
	}
	return n
}

// TestSkipAtLeastMatchesPerDraw checks SkipAtLeast against the
// per-draw Float64 loop over the edge probabilities (NaN, infinities,
// zero, the smallest subnormal, the largest float below 1, 1 and
// beyond) and over counts that cross the ring, repeatedly from the same
// generator so the draw below p lands at varied positions. The next
// Uint64 after each call proves the generator states match.
func TestSkipAtLeastMatchesPerDraw(t *testing.T) {
	ps := []float64{
		math.NaN(), math.Inf(-1), -1, 0, 5e-324, 1e-4, 0.5,
		1 - 0x1p-53, 1, 2, math.Inf(1),
	}
	for _, seed := range testSeeds {
		for _, p := range ps {
			for _, n := range []int{0, 1, 607, 2000} {
				got, want := NewRand(seed), NewRand(seed)
				for call := 0; call < 8; call++ {
					g, w := got.SkipAtLeast(p, n), skipPerDraw(want, p, n)
					if g != w {
						t.Fatalf("seed %d p %v n %d call %d: SkipAtLeast %d != per-draw %d", seed, p, n, call, g, w)
					}
					if gu, wu := got.Uint64(), want.Uint64(); gu != wu {
						t.Fatalf("seed %d p %v n %d call %d: next Uint64 %d != %d", seed, p, n, call, gu, wu)
					}
				}
			}
		}
	}
}

// TestSkipThresholdExact checks the integer threshold against Float64's
// own expression on both sides of it, including draws float64 rounds
// up across the boundary and the 1.0 resample cut.
func TestSkipThresholdExact(t *testing.T) {
	ps := []float64{5e-324, 0x1p-63, 1e-4, 0.001, 0.3, 0.5, 0.75, 1 - 0x1p-53, 0x1p-10 + 0x1p-62}
	for _, p := range ps {
		thr := skipThreshold(p)
		if thr == 0 || float64(thr)/(1<<63) < p || float64(thr-1)/(1<<63) >= p {
			t.Fatalf("p %v: threshold %d is not the first draw with Float64 >= p", p, thr)
		}
	}
	if float64(uint64(oneCut))/(1<<63) != 1 || float64(uint64(oneCut-1))/(1<<63) >= 1 {
		t.Fatal("oneCut is not the first draw Float64 rounds to 1.0")
	}
}

func BenchmarkFillNorm(b *testing.B) {
	r := NewRand(1)
	dst := make([]float64, 512)
	for i := 0; i < b.N; i++ {
		r.FillNorm(dst)
	}
}

func BenchmarkFillNormPerDraw(b *testing.B) {
	r := NewRand(1)
	dst := make([]float64, 512)
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] = r.NormFloat64()
		}
	}
}

func BenchmarkSkipAtLeast(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		r.SkipAtLeast(0.001, 512)
	}
}

func BenchmarkSkipAtLeastPerDraw(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		skipPerDraw(r, 0.001, 512)
	}
}
