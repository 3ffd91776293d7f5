// Package trace models the measurement chain between the coil and the
// data-analysis module: additive environment noise, oscilloscope
// sampling, and ADC quantization. The split between "simulation mode"
// (Section IV: white noise only) and "measurement mode" (Section V:
// extra interference, worse for the external probe) lives in the
// acquisition configuration.
package trace

import (
	"fmt"
	"math"
	"strings"
)

// Rand is the slice of randomness the measurement chain consumes: one
// uniform draw for the interference phase, one normal draw per sample
// for environment noise, and the uniform and bounded-integer draws of
// fault injection (internal/degrade). Both *math/rand.Rand and the
// repo's concrete *frand.Rand satisfy it. Every draw through it is an
// interface call; the per-sample loops go through Bulk instead, which
// hands them a whole block per call.
type Rand interface {
	Float64() float64
	NormFloat64() float64
	Intn(n int) int
}

// BulkRand is a Rand that also draws in blocks. Each block method is
// defined as a loop over the per-draw methods and must consume the
// stream exactly like that loop does, so a stage written against
// BulkRand reproduces its per-draw form bit for bit.
type BulkRand interface {
	Rand
	// FillNorm sets dst[i] = NormFloat64() for i in order.
	FillNorm(dst []float64)
	// SkipAtLeast draws Float64 values until one is below p or n have
	// been drawn, and returns how many came before the first one below
	// p (n when none was). A NaN p never fires.
	SkipAtLeast(p float64, n int) int
}

// Bulk returns r's block-drawing view: r itself when it implements
// BulkRand (*frand.Rand does, walking its generator's ring a segment
// at a time), otherwise an adapter that loops over r's per-draw
// methods.
func Bulk(r Rand) BulkRand {
	if b, ok := r.(BulkRand); ok {
		return b
	}
	return perDraw{r}
}

// perDraw implements BulkRand's block methods as their defining loops.
type perDraw struct{ Rand }

func (r perDraw) FillNorm(dst []float64) {
	for i := range dst {
		dst[i] = r.NormFloat64()
	}
}

func (r perDraw) SkipAtLeast(p float64, n int) int {
	for k := 0; k < n; k++ {
		if r.Float64() < p {
			return k
		}
	}
	return n
}

// Trace is a sampled voltage record.
type Trace struct {
	Dt      float64 // sample spacing in seconds
	Samples []float64
}

// Duration returns the trace length in seconds.
func (t *Trace) Duration() float64 { return float64(len(t.Samples)) * t.Dt }

// Clone returns a deep copy.
func (t *Trace) Clone() *Trace {
	s := make([]float64, len(t.Samples))
	copy(s, t.Samples)
	return &Trace{Dt: t.Dt, Samples: s}
}

// CSV renders the trace as "time,voltage" lines for external plotting.
func (t *Trace) CSV() string {
	var sb strings.Builder
	sb.WriteString("time_s,voltage_v\n")
	for i, v := range t.Samples {
		fmt.Fprintf(&sb, "%.9e,%.9e\n", float64(i)*t.Dt, v)
	}
	return sb.String()
}

// Channel converts a clean coil waveform into a measured trace. The
// concrete Acquisition models a healthy front end; wrappers (see
// internal/degrade) can interpose fault injection between the coil and
// the data-analysis module without the experiments noticing.
type Channel interface {
	Acquire(clean []float64, dt float64, rng Rand) *Trace
}

// ScaledAcquirer is the allocation-free fast path of a Channel: it
// writes the measured record into dst (reusing dst.Samples when the
// capacity suffices) and folds a caller-supplied amplitude scale into
// the front-end gain, so a common-mode gain wobble costs no separate
// copy pass. Acquire(clean, dt, rng) must equal
// AcquireScaledInto(new, clean, 1, dt, rng) bit for bit. clean must not
// share memory with dst.Samples.
type ScaledAcquirer interface {
	AcquireScaledInto(dst *Trace, clean []float64, scale, dt float64, rng Rand) *Trace
}

// Acquisition models one measurement channel (sensor or probe).
type Acquisition struct {
	// NoiseRMS is the RMS of the additive white Gaussian environment
	// noise referred to the coil output (volts). The paper's on-chip
	// sensor sees far less of it than the external probe.
	NoiseRMS float64
	// InterferenceRMS adds narrowband mains-and-lab interference, the
	// reason the fabricated chip's external probe SNR (13.87 dB) is
	// worse than its simulated one (17.48 dB). Zero in simulation mode.
	InterferenceRMS float64
	// InterferenceHz is the interference tone frequency.
	InterferenceHz float64
	// ADCBits and FullScale quantize the record like the oscilloscope;
	// ADCBits <= 0 disables quantization.
	ADCBits   int
	FullScale float64
	// Gain is the analog front-end gain applied before the ADC.
	Gain float64
}

// SimulationChannel returns the Section IV acquisition: white noise only.
func SimulationChannel(noiseRMS float64) Acquisition {
	return Acquisition{NoiseRMS: noiseRMS, Gain: 1}
}

// MeasurementChannel returns the Section V acquisition: white noise plus
// narrowband interference and 8-bit oscilloscope quantization.
func MeasurementChannel(noiseRMS, interferenceRMS, fullScale float64) Acquisition {
	return Acquisition{
		NoiseRMS:        noiseRMS,
		InterferenceRMS: interferenceRMS,
		InterferenceHz:  50e3,
		ADCBits:         8,
		FullScale:       fullScale,
		Gain:            1,
	}
}

// Acquire converts a clean coil waveform into a measured trace: gain,
// noise, interference, quantization. The rng makes captures reproducible;
// phase of the interference tone is randomized per capture, as on a real
// unsynchronized scope.
func (a Acquisition) Acquire(clean []float64, dt float64, rng Rand) *Trace {
	return a.AcquireScaledInto(&Trace{}, clean, 1, dt, rng)
}

// AcquireScaledInto implements ScaledAcquirer: Acquire with the clean
// waveform pre-multiplied by scale, written into dst. dst.Samples is
// reused when its capacity suffices; the rng draw order (interference
// phase first, then one normal draw per sample) matches Acquire
// exactly, so reseeded streams reproduce the allocating path bit for
// bit. scale*gain is applied as (v*scale)*g, two rounded multiplies,
// matching a caller that scaled the waveform itself before acquiring.
// The noise block is drawn into dst's buffer before clean is read, so
// clean must not share memory with dst.Samples.
func (a Acquisition) AcquireScaledInto(dst *Trace, clean []float64, scale, dt float64, rng Rand) *Trace {
	g := a.Gain
	if g == 0 {
		g = 1
	}
	out := dst.Samples
	if cap(out) < len(clean) {
		out = make([]float64, len(clean))
	} else {
		out = out[:len(clean)]
	}
	phase := rng.Float64() * 2 * math.Pi
	if a.NoiseRMS > 0 {
		// The noise is drawn in one block into out, then combined in
		// the per-sample order: (v*scale)*g + n*NoiseRMS.
		Bulk(rng).FillNorm(out)
		for i, v := range clean {
			out[i] = (v*scale)*g + out[i]*a.NoiseRMS
		}
	} else {
		for i, v := range clean {
			out[i] = (v * scale) * g
		}
	}
	if a.InterferenceRMS > 0 {
		for i := range out {
			out[i] += a.InterferenceRMS * math.Sqrt2 * math.Sin(2*math.Pi*a.InterferenceHz*float64(i)*dt+phase)
		}
	}
	if a.ADCBits > 0 && a.FullScale > 0 {
		quantize(out, a.ADCBits, a.FullScale)
	}
	dst.Dt = dt
	dst.Samples = out
	return dst
}

// AcquireNoise captures a record with no signal (the chip idling), used
// for the separate-noise-measurement SNR protocol of Section V-A.
func (a Acquisition) AcquireNoise(n int, dt float64, rng Rand) *Trace {
	return a.Acquire(make([]float64, n), dt, rng)
}

// quantize rounds samples to the ADC grid and clips at full scale.
func quantize(x []float64, bits int, fullScale float64) {
	levels := float64(int64(1) << uint(bits))
	step := 2 * fullScale / levels
	for i, v := range x {
		if v > fullScale {
			v = fullScale
		}
		if v < -fullScale {
			v = -fullScale
		}
		x[i] = math.Round(v/step) * step
	}
}

// Set is a collection of traces from the same channel and workload.
type Set struct {
	Traces []*Trace
}

// Add appends a trace.
func (s *Set) Add(t *Trace) { s.Traces = append(s.Traces, t) }

// Len returns the number of traces.
func (s *Set) Len() int { return len(s.Traces) }

// Matrix flattens the set into rows of samples, truncating every trace
// to the shortest length so the rows are rectangular.
func (s *Set) Matrix() ([][]float64, error) {
	if len(s.Traces) == 0 {
		return nil, fmt.Errorf("trace: empty set")
	}
	minLen := len(s.Traces[0].Samples)
	for _, t := range s.Traces {
		if len(t.Samples) < minLen {
			minLen = len(t.Samples)
		}
	}
	rows := make([][]float64, len(s.Traces))
	for i, t := range s.Traces {
		rows[i] = t.Samples[:minLen]
	}
	return rows, nil
}
