package frand

import "math"

// Rand is a concrete replica of *math/rand.Rand over a Source: every
// method reproduces math/rand's algorithm operation for operation, so
// the value streams are bit-identical for any seed — the difference is
// purely mechanical. math/rand layers each draw through an interface
// hop to its source; here the source is embedded, so Float64 and
// NormFloat64 compile down to direct array arithmetic, which matters
// when the acquisition path draws one normal variate per trace sample.
//
// Not safe for concurrent use.
type Rand struct {
	src Source
	// readVal/readPos carry Read's unused bytes of the last Int63
	// across calls, as math/rand does.
	readVal int64
	readPos int8
}

// NewRand returns a generator seeded like rand.New(rand.NewSource(seed)).
func NewRand(seed int64) *Rand {
	r := new(Rand)
	r.src.Seed(seed)
	return r
}

// Seed resets the generator to the deterministic state for seed.
func (r *Rand) Seed(seed int64) {
	r.src.Seed(seed)
	r.readPos = 0
}

// Read fills p with random bytes, seven per Int63 draw, low byte first,
// keeping the leftover bytes of a draw for the next call exactly like
// math/rand's Read. It always returns len(p), nil.
func (r *Rand) Read(p []byte) (n int, err error) {
	pos, val := r.readPos, r.readVal
	for n = 0; n < len(p); n++ {
		if pos == 0 {
			val = r.Int63()
			pos = 7
		}
		p[n] = byte(val)
		val >>= 8
		pos--
	}
	r.readPos, r.readVal = pos, val
	return n, nil
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.src.Uint64() & rngMask) }

// Uint64 returns the next 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Uint32 returns a 32-bit value, consuming one Int63 like math/rand.
func (r *Rand) Uint32() uint32 { return uint32(r.Int63() >> 31) }

// Int31 returns a non-negative 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Int63n returns a non-negative integer in [0, n). Panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Int31n returns a non-negative integer in [0, n). Panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Intn returns a non-negative integer in [0, n). Panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a value in [0, 1), preserving math/rand's Go 1
// stream (Int63 divided by 2⁶³, resampling the 1.0 rounding case).
func (r *Rand) Float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}

const rn = 3.442619855899

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// NormFloat64 returns a standard normal variate via the same ziggurat
// (Marsaglia & Tsang) walk as math/rand, value stream included.
func (r *Rand) NormFloat64() float64 {
	for {
		j := int32(r.Uint32()) // Possibly negative
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			// This case should be hit better than 99% of the time.
			return x
		}

		if i == 0 {
			// This extra work is only required for the base strip.
			for {
				x = -math.Log(r.Float64()) * (1.0 / rn)
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}
