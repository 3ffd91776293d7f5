package dsp

import (
	"fmt"
	"math"
	"sync"
)

// This file is the planned spectral engine: every transform size gets a
// cached Plan holding the precomputed bit-reversal permutation, twiddle
// tables, and untangle coefficients, plus a scratch pool, so the hot
// spectral paths (the Section III-E monitor tick, the Figure 4/6
// experiments, STFT spectrograms) run with zero steady-state
// allocations. Real input goes through the half-size complex transform
// plus an untangle pass — an n-point real FFT costs one n/2-point
// complex FFT instead of the n-point transform of the input widened to
// complex — and the magnitude/PSD loops use the 4-wide single-accumulator
// unroll idiom of DESIGN.md §10. The pre-existing complex radix-2
// butterflies are kept bit-identical (FFT/IFFT produce the same values
// as before; they only stopped recomputing the permutation per call),
// and they remain the reference the differential tests compare the real
// path against.

// cplan is a complex FFT plan: the bit-reversal permutation and forward
// twiddle table for one power-of-two size. Transforms through a cplan
// are bit-identical to the original per-call fftDir implementation.
type cplan struct {
	n   int
	rev []int32      // bit-reversal permutation
	tw  []complex128 // tw[k] = e^{-2*pi*i*k/n}, k < n/2
}

var (
	cplanMu sync.RWMutex
	cplans  = map[int]*cplan{}
)

// cplanFor returns the cached complex plan for size n, building it on
// first use. n must be a power of two. The read path takes only an
// RLock and never allocates, so concurrent transforms of a shared size
// stay contention- and allocation-free.
func cplanFor(n int) *cplan {
	cplanMu.RLock()
	p := cplans[n]
	cplanMu.RUnlock()
	if p != nil {
		return p
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	rev := make([]int32, n)
	logN := 0
	for 1<<logN < n {
		logN++
	}
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < logN; b++ {
			r = r<<1 | (i>>b)&1
		}
		rev[i] = int32(r)
	}
	p = &cplan{n: n, rev: rev, tw: twiddles(n)}
	cplanMu.Lock()
	if q, ok := cplans[n]; ok {
		p = q
	} else {
		cplans[n] = p
	}
	cplanMu.Unlock()
	return p
}

// transform runs the in-place radix-2 decimation-in-time butterflies.
// The butterfly order, twiddle values, and arithmetic are exactly those
// of the original fftDir, so results are bit-identical; only the
// bit-reversal permutation comes from the precomputed table.
func (p *cplan) transform(x []complex128, inverse bool) {
	n := p.n
	for i, jj := range p.rev {
		if j := int(jj); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.tw
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := tw[k*stride]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// Plan is a cached real-input spectral plan for one power-of-two
// transform size. Plans are shared process-wide (PlanFor returns the
// same *Plan for the same size) and safe for concurrent use: scratch
// buffers come from an internal pool, so any number of goroutines can
// run SpectrumInto/RealFFTInto on one Plan with zero steady-state
// allocations and bit-identical results.
type Plan struct {
	n       int    // transform size (power of two, >= 1)
	half    *cplan // complex plan of size n/2 (nil when n < 2)
	rtw     []complex128
	scratch sync.Pool // *[]complex128 of length n/2
}

var (
	planMu sync.RWMutex
	plans  = map[int]*Plan{}
)

// PlanFor returns the cached Plan for transform size n, which must be a
// power of two (callers pad with NextPow2 first; PlanFor panics
// otherwise, mirroring FFT). The lookup is allocation-free.
func PlanFor(n int) *Plan {
	planMu.RLock()
	p := plans[n]
	planMu.RUnlock()
	if p != nil {
		return p
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: plan length %d is not a power of two", n))
	}
	p = &Plan{n: n}
	if n >= 2 {
		p.half = cplanFor(n / 2)
		// Untangle twiddles e^{-2*pi*i*k/n} for k < n/2: exactly the
		// forward twiddle table of the full-size transform, shared with
		// the complex path.
		p.rtw = twiddles(n)
	}
	m := n / 2
	p.scratch.New = func() any {
		s := make([]complex128, m)
		return &s
	}
	planMu.Lock()
	if q, ok := plans[n]; ok {
		p = q
	} else {
		plans[n] = p
	}
	planMu.Unlock()
	return p
}

// PlanForLength returns the Plan for the padded transform of a signal
// of the given sample count: PlanFor(NextPow2(samples)).
func PlanForLength(samples int) *Plan { return PlanFor(NextPow2(samples)) }

// Size returns the transform length n of the plan.
func (p *Plan) Size() int { return p.n }

// Bins returns the number of one-sided spectrum bins, n/2 + 1.
func (p *Plan) Bins() int { return p.n/2 + 1 }

// grow returns buf resized to n, reusing its backing array when the
// capacity suffices.
func grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

func growC(buf []complex128, n int) []complex128 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]complex128, n)
}

// pack fills z[j] = x[2j] + i*x[2j+1] (zero-padded past len(x)) — the
// standard even/odd packing that lets the half-size complex transform
// carry the full real signal.
func pack(z []complex128, x []float64) {
	m := len(z)
	full := len(x) / 2 // pairs entirely inside x
	if full > m {
		full = m
	}
	j := 0
	for ; j+4 <= full; j += 4 { // 4-wide unroll of the pack loop
		z[j] = complex(x[2*j], x[2*j+1])
		z[j+1] = complex(x[2*j+2], x[2*j+3])
		z[j+2] = complex(x[2*j+4], x[2*j+5])
		z[j+3] = complex(x[2*j+6], x[2*j+7])
	}
	for ; j < full; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	if j < m {
		if 2*j < len(x) { // odd trailing sample
			z[j] = complex(x[2*j], 0)
			j++
		}
		for ; j < m; j++ {
			z[j] = 0
		}
	}
}

// packWindowed is pack with the window coefficients applied on the fly,
// fusing the window multiply into the load so no windowed copy of x is
// ever materialized.
func packWindowed(z []complex128, x, c []float64) {
	m := len(z)
	full := len(x) / 2
	if full > m {
		full = m
	}
	j := 0
	for ; j+2 <= full; j += 2 { // 4 real samples per iteration
		z[j] = complex(x[2*j]*c[2*j], x[2*j+1]*c[2*j+1])
		z[j+1] = complex(x[2*j+2]*c[2*j+2], x[2*j+3]*c[2*j+3])
	}
	for ; j < full; j++ {
		z[j] = complex(x[2*j]*c[2*j], x[2*j+1]*c[2*j+1])
	}
	if j < m {
		if 2*j < len(x) {
			z[j] = complex(x[2*j]*c[2*j], 0)
			j++
		}
		for ; j < m; j++ {
			z[j] = 0
		}
	}
}

// RealFFTInto computes the length-n complex spectrum of the real signal
// x (len(x) <= n, zero-padded) into dst, growing dst only when its
// capacity is below n. The upper half is filled by conjugate symmetry,
// so the result matches the full complex transform of the padded signal
// to within floating-point rounding (the differential tests bound the
// difference). The work happens in place inside dst: no scratch buffer
// and no allocation when dst has capacity.
func (p *Plan) RealFFTInto(dst []complex128, x []float64) []complex128 {
	n := p.n
	if len(x) > n {
		panic(fmt.Sprintf("dsp: signal of %d samples exceeds plan size %d", len(x), n))
	}
	dst = growC(dst, n)
	if n == 1 {
		v := 0.0
		if len(x) > 0 {
			v = x[0]
		}
		dst[0] = complex(v, 0)
		return dst
	}
	m := n / 2
	pack(dst[:m], x)
	p.half.transform(dst[:m], false)
	p.untangle(dst)
	return dst
}

// untangle converts the half-size transform of the packed signal
// (stored in dst[:n/2]) into the full n-bin spectrum in place. For each
// pair (k, m-k) it splits the packed transform into the spectra of the
// even and odd sample streams and recombines them with the untangle
// twiddle e^{-2*pi*i*k/n}; the upper half follows from conjugate
// symmetry of real-input spectra.
func (p *Plan) untangle(dst []complex128) {
	n := p.n
	m := n / 2
	z0 := dst[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[m] = complex(real(z0)-imag(z0), 0)
	for k := 1; 2*k <= m; k++ {
		j := m - k
		a, b := dst[k], dst[j]
		ar, ai := real(a), imag(a)
		br, bi := real(b), imag(b)
		evR, evI := 0.5*(ar+br), 0.5*(ai-bi) // spectrum of even samples
		odR, odI := 0.5*(ai+bi), 0.5*(br-ar) // spectrum of odd samples
		tk := p.rtw[k]
		tkR, tkI := real(tk), imag(tk)
		xkR := evR + tkR*odR - tkI*odI
		xkI := evI + tkR*odI + tkI*odR
		if j == k {
			dst[k] = complex(xkR, xkI)
			dst[n-k] = complex(xkR, -xkI)
			continue
		}
		// The partner bin swaps the roles of a and b: the even part
		// conjugates, the odd part negates component-wise.
		tj := p.rtw[j]
		tjR, tjI := real(tj), imag(tj)
		xjR := evR + tjR*odR + tjI*odI
		xjI := -evI - tjR*odI + tjI*odR
		dst[k] = complex(xkR, xkI)
		dst[j] = complex(xjR, xjI)
		dst[n-k] = complex(xkR, -xkI)
		dst[n-j] = complex(xjR, -xjI)
	}
}

// SpectrumInto computes the one-sided amplitude spectrum of x (windowed
// by w, zero-padded to the plan size, scaled by the window's coherent
// gain exactly as NewSpectrum does) into dst, growing dst only when
// needed, and returns the n/2+1 amplitudes. The transform runs in a
// pooled half-size scratch buffer, so the call is allocation-free at
// steady state and safe for concurrent use on a shared Plan. dst may
// alias x: every read of x happens during the packing pass, before the
// first write to dst.
func (p *Plan) SpectrumInto(dst []float64, x []float64, w Window) []float64 {
	if len(x) == 0 {
		return grow(dst, 0)
	}
	n := p.n
	if len(x) > n {
		panic(fmt.Sprintf("dsp: signal of %d samples exceeds plan size %d", len(x), n))
	}
	wv := windowFor(w, len(x))
	scale := 2 / (float64(len(x)) * wv.gain)
	if n == 1 {
		dst = grow(dst, 1)
		// A single bin is both DC and Nyquist; NewSpectrum halves once.
		dst[0] = math.Abs(x[0]*wv.coef[0]) * scale / 2
		return dst
	}
	m := n / 2
	dst = grow(dst, m+1)
	zp := p.scratch.Get().(*[]complex128)
	z := *zp
	packWindowed(z, x, wv.coef)
	p.half.transform(z, false)
	// Untangle and take magnitudes in one pass: only the one-sided bins
	// are needed, so the full spectrum is never materialized.
	z0 := z[0]
	dst[0] = math.Abs(real(z0)+imag(z0)) * scale / 2 // DC appears once
	dst[m] = math.Abs(real(z0)-imag(z0)) * scale / 2 // Nyquist appears once
	for k := 1; 2*k <= m; k++ {
		j := m - k
		a, b := z[k], z[j]
		ar, ai := real(a), imag(a)
		br, bi := real(b), imag(b)
		evR, evI := 0.5*(ar+br), 0.5*(ai-bi)
		odR, odI := 0.5*(ai+bi), 0.5*(br-ar)
		tk := p.rtw[k]
		tkR, tkI := real(tk), imag(tk)
		xkR := evR + tkR*odR - tkI*odI
		xkI := evI + tkR*odI + tkI*odR
		dst[k] = math.Sqrt(xkR*xkR+xkI*xkI) * scale
		if j == k {
			continue
		}
		tj := p.rtw[j]
		tjR, tjI := real(tj), imag(tj)
		xjR := evR + tjR*odR + tjI*odI
		xjI := -evI - tjR*odI + tjI*odR
		dst[j] = math.Sqrt(xjR*xjR+xjI*xjI) * scale
	}
	p.scratch.Put(zp)
	return dst
}

// PSDInto computes the one-sided power spectral density of x (in
// V^2/Hz for a signal in volts sampled every dt seconds) into dst using
// the standard periodogram normalization 2*|X[k]|^2 / (fs * sum(w^2)),
// with DC and Nyquist not doubled. Like SpectrumInto it is
// allocation-free at steady state and concurrency-safe.
func (p *Plan) PSDInto(dst []float64, x []float64, dt float64, w Window) []float64 {
	if len(x) == 0 {
		return grow(dst, 0)
	}
	n := p.n
	if len(x) > n {
		panic(fmt.Sprintf("dsp: signal of %d samples exceeds plan size %d", len(x), n))
	}
	wv := windowFor(w, len(x))
	den := wv.sumsq / dt // fs * sum(w^2)
	scale := 2 / den
	if n == 1 {
		dst = grow(dst, 1)
		v := x[0] * wv.coef[0]
		dst[0] = v * v / den
		return dst
	}
	m := n / 2
	dst = grow(dst, m+1)
	zp := p.scratch.Get().(*[]complex128)
	z := *zp
	packWindowed(z, x, wv.coef)
	p.half.transform(z, false)
	z0 := z[0]
	dc := real(z0) + imag(z0)
	ny := real(z0) - imag(z0)
	dst[0] = dc * dc / den
	dst[m] = ny * ny / den
	for k := 1; 2*k <= m; k++ {
		j := m - k
		a, b := z[k], z[j]
		ar, ai := real(a), imag(a)
		br, bi := real(b), imag(b)
		evR, evI := 0.5*(ar+br), 0.5*(ai-bi)
		odR, odI := 0.5*(ai+bi), 0.5*(br-ar)
		tk := p.rtw[k]
		tkR, tkI := real(tk), imag(tk)
		xkR := evR + tkR*odR - tkI*odI
		xkI := evI + tkR*odI + tkI*odR
		dst[k] = (xkR*xkR + xkI*xkI) * scale
		if j == k {
			continue
		}
		tj := p.rtw[j]
		tjR, tjI := real(tj), imag(tj)
		xjR := evR + tjR*odR + tjI*odI
		xjI := -evI - tjR*odI + tjI*odR
		dst[j] = (xjR*xjR + xjI*xjI) * scale
	}
	p.scratch.Put(zp)
	return dst
}

// MagnitudesInto writes |spec[i]| into dst (grown as needed) and
// returns it, using the 4-wide unrolled sqrt(re^2+im^2) form — the
// values the spectral paths see are far from the overflow regime where
// Hypot's rescaling would matter.
func MagnitudesInto(dst []float64, spec []complex128) []float64 {
	dst = grow(dst, len(spec))
	i := 0
	for ; i+4 <= len(spec); i += 4 {
		a, b, c, d := spec[i], spec[i+1], spec[i+2], spec[i+3]
		dst[i] = math.Sqrt(real(a)*real(a) + imag(a)*imag(a))
		dst[i+1] = math.Sqrt(real(b)*real(b) + imag(b)*imag(b))
		dst[i+2] = math.Sqrt(real(c)*real(c) + imag(c)*imag(c))
		dst[i+3] = math.Sqrt(real(d)*real(d) + imag(d)*imag(d))
	}
	for ; i < len(spec); i++ {
		v := spec[i]
		dst[i] = math.Sqrt(real(v)*real(v) + imag(v)*imag(v))
	}
	return dst
}

// Welch is a streaming averaged-periodogram (Welch) accumulator:
// segments are added one at a time and only the running power sum is
// retained, so arbitrarily long signals average into one PSD with a
// fixed memory footprint and no per-segment allocation.
type Welch struct {
	p      *Plan
	w      Window
	dt     float64
	segLen int
	count  int
	sum    []float64 // running sum of per-segment PSDs
	tmp    []float64 // per-segment scratch
}

// NewWelch returns an accumulator for segments of segLen samples spaced
// dt seconds apart, windowed by w. segLen must be positive.
func NewWelch(segLen int, dt float64, w Window) (*Welch, error) {
	if segLen <= 0 {
		return nil, fmt.Errorf("dsp: welch segment length %d must be positive", segLen)
	}
	if dt <= 0 {
		return nil, fmt.Errorf("dsp: welch sample spacing %g must be positive", dt)
	}
	p := PlanForLength(segLen)
	return &Welch{p: p, w: w, dt: dt, segLen: segLen, sum: make([]float64, p.Bins()), tmp: make([]float64, p.Bins())}, nil
}

// Add accumulates one segment. The segment must have exactly the
// configured length.
func (a *Welch) Add(seg []float64) error {
	if len(seg) != a.segLen {
		return fmt.Errorf("dsp: welch segment of %d samples, want %d", len(seg), a.segLen)
	}
	a.tmp = a.p.PSDInto(a.tmp, seg, a.dt, a.w)
	// 4-wide unrolled accumulation in index order (DESIGN.md §10).
	i := 0
	for ; i+4 <= len(a.sum); i += 4 {
		a.sum[i] += a.tmp[i]
		a.sum[i+1] += a.tmp[i+1]
		a.sum[i+2] += a.tmp[i+2]
		a.sum[i+3] += a.tmp[i+3]
	}
	for ; i < len(a.sum); i++ {
		a.sum[i] += a.tmp[i]
	}
	a.count++
	return nil
}

// Segments returns how many segments have been accumulated.
func (a *Welch) Segments() int { return a.count }

// DF returns the bin spacing of the averaged PSD in hertz.
func (a *Welch) DF() float64 { return 1 / (float64(a.p.Size()) * a.dt) }

// PSDInto writes the averaged PSD into dst (grown as needed). It
// returns nil when no segments have been added.
func (a *Welch) PSDInto(dst []float64) []float64 {
	if a.count == 0 {
		return nil
	}
	dst = grow(dst, len(a.sum))
	inv := 1 / float64(a.count)
	for i, v := range a.sum {
		dst[i] = v * inv
	}
	return dst
}

// Reset clears the accumulator for reuse.
func (a *Welch) Reset() {
	for i := range a.sum {
		a.sum[i] = 0
	}
	a.count = 0
}

// STFTInto computes a spectrogram as raw amplitude rows: successive
// one-sided spectra of winLen-sample frames advanced by hop, written
// into dst (rows reused when present, grown otherwise). It returns the
// rows and the bin spacing in hertz. One plan scratch set is reused
// across all frames, so a steady-state caller re-passing its previous
// rows triggers no allocation at all. Degenerate arguments (winLen <=
// 0, hop <= 0, or a signal shorter than one frame) return (nil, 0),
// the same documented clamp as STFT.
func STFTInto(dst [][]float64, x []float64, dt float64, w Window, winLen, hop int) ([][]float64, float64) {
	if winLen <= 0 || hop <= 0 || len(x) < winLen {
		return nil, 0
	}
	p := PlanForLength(winLen)
	frames := 1 + (len(x)-winLen)/hop
	if cap(dst) >= frames {
		dst = dst[:frames]
	} else {
		old := dst
		dst = make([][]float64, frames)
		copy(dst, old)
	}
	for f := 0; f < frames; f++ {
		start := f * hop
		dst[f] = p.SpectrumInto(dst[f], x[start:start+winLen], w)
	}
	return dst, 1 / (float64(p.Size()) * dt)
}
