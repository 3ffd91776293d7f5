package degrade

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"emtrust/internal/frand"
	"emtrust/internal/trace"
)

func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestBulkAdapterMatchesFrand runs a full fault chain twice with the
// same seed: once over *math/rand.Rand, which reaches the stages
// through trace.Bulk's per-draw adapter, and once over *frand.Rand,
// whose block kernels keep the generator in registers. The traces must
// agree bit for bit, and the allocation-free AcquireAtInto must agree
// with both.
func TestBulkAdapterMatchesFrand(t *testing.T) {
	inners := map[string]trace.Channel{
		"simulation":  trace.SimulationChannel(0.05),
		"measurement": trace.MeasurementChannel(0.05, 0.1, 3),
	}
	for name, inner := range inners {
		for _, sev := range []float64{2, 40} {
			ch := Wrap(inner, Profile{Severity: sev, RefRMS: 0.7, RefPeak: 1, Span: 50}.Stages()...)
			in := ramp(1000)
			dst := &trace.Trace{}
			for _, seed := range []int64{1, 99, -7, 1 << 40} {
				for _, idx := range []int{0, 13} {
					want := ch.AcquireAt(idx, in, 1e-8, rand.New(rand.NewSource(seed)))
					got := ch.AcquireAt(idx, in, 1e-8, frand.NewRand(seed))
					if i, ok := sameBits(got.Samples, want.Samples); !ok {
						t.Fatalf("%s severity %v seed %d index %d: sample %d frand %v != math/rand %v",
							name, sev, seed, idx, i, got.Samples[i], want.Samples[i])
					}
					dst = ch.AcquireAtInto(idx, dst, in, 1, 1e-8, frand.NewRand(seed))
					if i, ok := sameBits(dst.Samples, want.Samples); !ok {
						t.Fatalf("%s severity %v seed %d index %d: AcquireAtInto sample %d %v != %v",
							name, sev, seed, idx, i, dst.Samples[i], want.Samples[i])
					}
				}
			}
		}
	}
}

// The per-draw forms of the randomized stages, as they were written
// before the block kernels: one generator call per sample.

func dropoutPerDraw(d Dropout, s []float64, rng trace.Rand) {
	for i := range s {
		if rng.Float64() < d.Rate {
			s[i] = 0
		}
	}
}

func stuckPerDraw(g Stuck, s []float64, rng trace.Rand) {
	for i := 1; i < len(s); i++ {
		if rng.Float64() >= g.Rate {
			continue
		}
		run := 1 + rng.Intn(2*g.MeanRun-1)
		hold := s[i-1]
		for j := 0; j < run && i < len(s); j, i = j+1, i+1 {
			s[i] = hold
		}
	}
}

func burstPerDraw(b Burst, s []float64, rng trace.Rand) {
	for i := 0; i < len(s); i++ {
		if rng.Float64() >= b.Rate {
			continue
		}
		run := 1 + rng.Intn(2*b.MeanRun-1)
		for j := 0; j < run && i < len(s); j, i = j+1, i+1 {
			s[i] += rng.NormFloat64() * b.RMS
		}
	}
}

func jitterPerDraw(jt Jitter, s []float64, rng trace.Rand) {
	orig := append([]float64(nil), s...)
	max := float64(len(s) - 1)
	for i := range s {
		pos := float64(i) + rng.NormFloat64()*jt.RMSFraction
		if pos < 0 {
			pos = 0
		} else if pos > max {
			pos = max
		}
		lo := int(pos)
		frac := pos - float64(lo)
		if lo >= len(s)-1 {
			s[i] = orig[len(s)-1]
			continue
		}
		s[i] = orig[lo]*(1-frac) + orig[lo+1]*frac
	}
}

// TestStagesMatchPerDrawForm checks every randomized stage against its
// per-draw form, at rates high enough that runs start, overlap the
// record's end and follow each other closely, on lengths around the
// jitter block size. The next draw after the stage proves both left the
// generator in the same state.
func TestStagesMatchPerDrawForm(t *testing.T) {
	type pair struct {
		stage   Stage
		perDraw func(s []float64, rng trace.Rand)
	}
	var pairs []pair
	for _, rate := range []float64{1e-4, 0.01, 0.3, 1} {
		d := Dropout{Rate: rate}
		g := Stuck{Rate: rate, MeanRun: 6}
		b := Burst{Rate: rate, RMS: 3, MeanRun: 4}
		pairs = append(pairs,
			pair{d, func(s []float64, r trace.Rand) { dropoutPerDraw(d, s, r) }},
			pair{g, func(s []float64, r trace.Rand) { stuckPerDraw(g, s, r) }},
			pair{b, func(s []float64, r trace.Rand) { burstPerDraw(b, s, r) }})
	}
	for _, frac := range []float64{0.01, 0.7, 300} {
		jt := Jitter{RMSFraction: frac}
		pairs = append(pairs, pair{jt, func(s []float64, r trace.Rand) { jitterPerDraw(jt, s, r) }})
	}
	for _, p := range pairs {
		for _, n := range []int{2, 127, 128, 129, 1000} {
			for _, seed := range []int64{3, 1 << 33} {
				name := fmt.Sprintf("%s %+v n=%d seed=%d", p.stage.Name(), p.stage, n, seed)
				want, got := ramp(n), ramp(n)
				wr, gr := frand.NewRand(seed), frand.NewRand(seed)
				p.perDraw(want, wr)
				p.stage.Apply(got, Env{Rng: gr})
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("%s: sample %d %v != per-draw %v", name, i, got[i], want[i])
				}
				if g, w := gr.Uint64(), wr.Uint64(); g != w {
					t.Fatalf("%s: generator state diverged (next draw %d != %d)", name, g, w)
				}
			}
		}
	}
}

// zeroRand returns 0 from every draw.
type zeroRand struct{}

func (zeroRand) Float64() float64     { return 0 }
func (zeroRand) NormFloat64() float64 { return 0 }
func (zeroRand) Intn(int) int         { return 0 }

// TestStageParameterEdges applies every stage with NaN, ±Inf and huge
// parameters. None may panic or change the record's length, and a NaN
// rate, fraction, amplitude or rail disables its stage like zero does.
func TestStageParameterEdges(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	huge := []float64{nan, inf, -inf, 1e300, -1e300}
	var stages []Stage
	for _, x := range huge {
		stages = append(stages,
			Clip{Rail: x},
			Dropout{Rate: x},
			Jitter{RMSFraction: x},
			Drift{GainPerTrace: x, OffsetPerTrace: x},
			Flatline{Level: x},
		)
		for _, run := range []int{math.MinInt, -1, 0, math.MaxInt / 2, math.MaxInt} {
			stages = append(stages,
				Stuck{Rate: x, MeanRun: run},
				Stuck{Rate: 0.5, MeanRun: run},
				Burst{Rate: x, RMS: 1, MeanRun: run},
				Burst{Rate: 0.5, RMS: x, MeanRun: run},
			)
		}
	}
	for _, st := range stages {
		for _, index := range []int{0, math.MaxInt} {
			// zeroRand makes every draw 0, so an infinite jitter
			// fraction meets a zero normal (0·Inf = NaN).
			for _, rng := range []trace.Rand{frand.NewRand(1), zeroRand{}} {
				s := ramp(300)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s %+v index %d rng %T panicked: %v", st.Name(), st, index, rng, r)
						}
					}()
					st.Apply(s, Env{Index: index, Rng: rng})
				}()
				if len(s) != 300 {
					t.Fatalf("%s %+v changed the length to %d", st.Name(), st, len(s))
				}
			}
		}
	}
	for _, st := range []Stage{
		Clip{Rail: nan},
		Dropout{Rate: nan},
		Jitter{RMSFraction: nan},
		Stuck{Rate: nan, MeanRun: 3},
		Burst{Rate: nan, RMS: 1, MeanRun: 3},
		Burst{Rate: 0.5, RMS: nan, MeanRun: 3},
	} {
		s := ramp(300)
		st.Apply(s, Env{Rng: frand.NewRand(1)})
		if i, ok := sameBits(s, ramp(300)); !ok {
			t.Fatalf("%s %+v with a NaN parameter changed sample %d", st.Name(), st, i)
		}
	}
}

// BenchmarkDegradeAcquire is the per-draw acquisition a fleet die
// repeats TickAverages times per verdict: a severity-2 fault chain over
// the healthy sensor channel on a 512-sample waveform, reseeding one
// frand generator per acquisition.
func BenchmarkDegradeAcquire(b *testing.B) {
	clean := ramp(512)
	stages := Profile{Severity: 2, RefRMS: 0.7, RefPeak: 1, Span: 100}.Stages()
	ch := Wrap(trace.SimulationChannel(0.05), stages...)
	rng := frand.NewRand(0)
	dst := &trace.Trace{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i))
		dst = ch.AcquireAtInto(i%100, dst, clean, 1, 1e-8, rng)
	}
}
