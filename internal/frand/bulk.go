package frand

import "math"

// Bulk kernels: the same streams as per-draw NormFloat64 and Float64,
// drawn a ring segment at a time. A per-sample acquisition stage draws
// hundreds of values back to back; the per-draw methods load and store
// the lagged-Fibonacci indices, wrap-check both and bounds-check the
// ring on every draw, which costs about as much as the generator
// arithmetic itself.

// oneCut is the smallest 63-bit draw that float64 rounds up to 2⁶³,
// i.e. the draws Float64 resamples because they would return 1.0.
const oneCut = 1<<63 - 1<<9

// segment returns the stretch of the ring the next m steps walk, with
// m the most steps (up to want) before tap or feed wraps: step t adds
// tapSeg[m-1-t] into feedSeg[m-1-t]. Indices at 0 are first moved to
// rngLen, the same position modulo the ring, so m >= 1 when want >= 1.
// Within a segment neither index needs a wrap check, and slicing lets
// the compiler drop most bounds checks; the two segments may overlap,
// which the sequential loops over them handle like the ring itself.
func (s *Source) segment(want int) (tapSeg, feedSeg []uint64) {
	if s.tap == 0 {
		s.tap = rngLen
	}
	if s.feed == 0 {
		s.feed = rngLen
	}
	m := min(s.tap, s.feed, want)
	tapSeg = s.vec[s.tap-m : s.tap]
	feedSeg = s.vec[s.feed-m : s.feed]
	return tapSeg, feedSeg[:len(tapSeg)]
}

// FillNorm sets dst[i] = r.NormFloat64() for every i, in order: the
// values and the generator state afterwards equal the per-draw loop's
// exactly. The ziggurat's fast path runs in normFast; its rare slow
// path (about 1% of draws) goes through NormFloat64 itself.
func (r *Rand) FillNorm(dst []float64) {
	s := &r.src
	for len(dst) > 0 {
		a, b := s.segment(len(dst))
		done := normFast(a, b, dst[:len(b)])
		s.tap -= done
		s.feed -= done
		dst = dst[done:]
		if done < len(b) {
			// The next step leaves the ziggurat's fast path: replay
			// that variate through the method.
			dst[0] = r.NormFloat64()
			dst = dst[1:]
		}
	}
}

// normFast walks one segment (see segment) producing NormFloat64's
// fast-path variates into out, and returns how many it produced. It
// stops before a step that would leave the fast path, leaving the ring
// as that step found it. Kept free of calls so the loop state stays in
// registers.
func normFast(a, b []uint64, out []float64) int {
	m := len(b)
	out = out[:m]
	a = a[:m]
	for t := range out {
		i := m - 1 - t
		x := b[i] + a[i]
		// NormFloat64's first draw: int32(Uint32()), Uint32 being
		// bits 31..62 of the masked Int63.
		j := int32(uint32((x & rngMask) >> 31))
		k := j & 0x7F
		if absInt32(j) >= kn[k] {
			return t
		}
		b[i] = x
		out[t] = float64(j) * float64(wn[k])
	}
	return m
}

// SkipAtLeast draws Float64 values until one is below p or n have been
// drawn, and returns how many draws came before the first one below p:
// n when none was. The draw below p, if any, is consumed, so the
// stream continues exactly where a per-draw loop
//
//	for k := 0; k < n; k++ { if r.Float64() < p { return k } }; return n
//
// would leave it. A NaN p never fires (Float64() < NaN is false).
// The compare runs on the raw 63-bit draw against a threshold computed
// once per call, with Float64's resample of the 1.0 case kept.
func (r *Rand) SkipAtLeast(p float64, n int) int {
	if n <= 0 {
		return 0
	}
	// Draws in [thr, oneCut) are >= p; below thr they fire, from
	// oneCut up Float64 resamples. thr <= oneCut for every p.
	thr := min(skipThreshold(p), oneCut)
	span := uint64(oneCut) - thr
	s := &r.src
	k := 0
	for k < n {
		a, b := s.segment(n - k)
		i := len(b) - 1
		for ; i >= 0; i-- {
			x := b[i] + a[i]
			b[i] = x
			v := x & rngMask
			if v-thr < span {
				k++
				continue
			}
			if v < thr {
				break
			}
			// Resampled: consumed, not counted. A resample can only
			// lengthen the scan, so the segment may end short of n.
		}
		steps := len(b) - 1 - i
		if i >= 0 {
			s.tap -= steps + 1
			s.feed -= steps + 1
			return k
		}
		s.tap -= steps
		s.feed -= steps
	}
	return k
}

// skipThreshold returns the smallest 63-bit draw v whose Float64 value
// float64(v)/2⁶³ is not below p, so that Float64() < p exactly when
// v < skipThreshold(p) (for the draws Float64 does not resample). A
// NaN or non-positive p gives 0 (nothing fires); p >= 1 gives 2⁶³
// (every draw fires).
func skipThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 63
	}
	// c = ceil(p·2⁶³) (the scaling is exact) satisfies the predicate;
	// below it only draws that float64 rounds up to c can, and those
	// lie within one float spacing (at most 2¹⁰) of c. Binary search
	// that window with Float64's own expression.
	c := uint64(math.Ceil(p * (1 << 63)))
	lo := uint64(0)
	if c > 1<<11 {
		lo = c - 1<<11
	}
	// Invariant: draw lo fires, draw c does not.
	for lo+1 < c {
		mid := lo + (c-lo)/2
		if float64(mid)/(1<<63) < p {
			lo = mid
		} else {
			c = mid
		}
	}
	return c
}
