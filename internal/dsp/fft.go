// Package dsp provides the signal-processing primitives used by the trust
// evaluation framework: FFT, window functions, power spectra, RMS and SNR
// computation, and simple filtering. Everything is implemented from scratch
// on top of the standard library so the repository stays dependency-free.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// twiddleCache memoizes the forward roots of unity per transform length:
// tw[k] = e^{-2*pi*i*k/n} for k < n/2. Each butterfly stage of size s
// reads the same table with stride n/s, so one table serves the whole
// transform, and the direct Cos/Sin evaluation is more accurate than the
// cumulative w *= wStep product the loop used before.
var twiddleCache sync.Map // int -> []complex128

func twiddles(n int) []complex128 {
	if v, ok := twiddleCache.Load(n); ok {
		return v.([]complex128)
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		th := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(th), math.Sin(th))
	}
	v, _ := twiddleCache.LoadOrStore(n, tw)
	return v.([]complex128)
}

// NextPow2 returns the smallest power of two that is >= n. It returns 1 for
// n <= 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. The length of x must be a power of two; FFT panics
// otherwise (a programming error, not an input error: callers zero-pad with
// PadPow2 first). The transform is unnormalized: IFFT(FFT(x)) == x.
func FFT(x []complex128) {
	fftDir(x, false)
}

// IFFT computes the inverse FFT of x in place, including the 1/N
// normalization. The length of x must be a power of two.
func IFFT(x []complex128) {
	fftDir(x, true)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
}

func fftDir(x []complex128, inverse bool) {
	n := len(x)
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// The planned transform runs the same butterflies over the same
	// twiddle table; only the bit-reversal permutation is precomputed,
	// so results stay bit-identical to the historical implementation.
	cplanFor(n).transform(x, inverse)
}

// PadPow2 returns x zero-padded to the next power-of-two length. If the
// length of x is already a power of two, a copy is returned so callers can
// transform the result in place without aliasing the input.
func PadPow2(x []float64) []float64 {
	n := NextPow2(len(x))
	out := make([]float64, n)
	copy(out, x)
	return out
}

// RealFFT computes the FFT of a real signal, zero-padding it to a power of
// two. It returns the complex spectrum of length NextPow2(len(x)).
func RealFFT(x []float64) []complex128 {
	return RealFFTInto(nil, x)
}

// RealFFTInto is RealFFT writing into dst, which is grown only when its
// capacity is below NextPow2(len(x)); it returns the slice holding the
// spectrum. It runs the planned half-size real transform (see plan.go):
// half the butterfly work of widening to complex and running the full
// complex FFT, with no scratch allocation when dst has capacity. The
// full complex transform remains available through FFT and serves as
// the reference in the differential tests.
func RealFFTInto(dst []complex128, x []float64) []complex128 {
	return PlanForLength(len(x)).RealFFTInto(dst, x)
}

// BinFrequency returns the frequency in hertz of bin k for a transform of
// length n over samples spaced dt seconds apart.
func BinFrequency(k, n int, dt float64) float64 {
	return float64(k) / (float64(n) * dt)
}

// FrequencyBin returns the closest bin index for frequency f (Hz) given a
// transform length n and sample spacing dt. The result is clamped to the
// one-sided range [0, n/2].
func FrequencyBin(f float64, n int, dt float64) int {
	k := int(math.Round(f * float64(n) * dt))
	if k < 0 {
		k = 0
	}
	if k > n/2 {
		k = n / 2
	}
	return k
}
