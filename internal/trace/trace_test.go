package trace

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"emtrust/internal/dsp"
	"emtrust/internal/frand"
)

func TestTraceBasics(t *testing.T) {
	tr := &Trace{Dt: 1e-6, Samples: []float64{1, 2, 3}}
	if tr.Duration() != 3e-6 {
		t.Fatalf("duration = %g", tr.Duration())
	}
	cl := tr.Clone()
	cl.Samples[0] = 99
	if tr.Samples[0] != 1 {
		t.Fatal("Clone aliases")
	}
	csv := tr.CSV()
	if !strings.HasPrefix(csv, "time_s,voltage_v\n") || strings.Count(csv, "\n") != 4 {
		t.Fatalf("csv = %q", csv)
	}
}

func TestAcquireAddsCalibratedNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := SimulationChannel(0.01)
	clean := make([]float64, 16384)
	tr := a.Acquire(clean, 1e-8, rng)
	rms := dsp.RMS(tr.Samples)
	if math.Abs(rms-0.01) > 0.001 {
		t.Fatalf("noise RMS = %g, want ~0.01", rms)
	}
}

func TestAcquirePreservesSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := SimulationChannel(0)
	clean := []float64{1, -1, 0.5}
	tr := a.Acquire(clean, 1e-8, rng)
	for i, v := range clean {
		if tr.Samples[i] != v {
			t.Fatal("noiseless channel must be transparent")
		}
	}
	if tr.Dt != 1e-8 {
		t.Fatal("dt lost")
	}
}

func TestAcquireGain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Acquisition{Gain: 10}
	tr := a.Acquire([]float64{1}, 1e-8, rng)
	if tr.Samples[0] != 10 {
		t.Fatalf("gain not applied: %g", tr.Samples[0])
	}
	// Zero gain defaults to unity, so a zero-valued Acquisition is usable.
	b := Acquisition{}
	tr = b.Acquire([]float64{1}, 1e-8, rng)
	if tr.Samples[0] != 1 {
		t.Fatal("zero gain must default to 1")
	}
}

func TestMeasurementChannelInterference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := MeasurementChannel(0, 0.1, 1)
	a.ADCBits = 0 // isolate the interference
	tr := a.Acquire(make([]float64, 65536), 1e-7, rng)
	rms := dsp.RMS(tr.Samples)
	if math.Abs(rms-0.1) > 0.02 {
		t.Fatalf("interference RMS = %g, want ~0.1", rms)
	}
	// Interference must concentrate at the configured tone.
	spec := dsp.NewSpectrum(tr.Samples, 1e-7, dsp.Hann)
	peak := spec.TopPeaks(1, 0)[0]
	if math.Abs(peak.Frequency-a.InterferenceHz) > 5*spec.DF {
		t.Fatalf("interference peak at %g, want %g", peak.Frequency, a.InterferenceHz)
	}
}

func TestQuantization(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Acquisition{ADCBits: 3, FullScale: 1, Gain: 1}
	in := []float64{0.999, -2, 0.1, 2}
	tr := a.Acquire(in, 1e-8, rng)
	step := 2.0 / 8
	for i, v := range tr.Samples {
		q := v / step
		if math.Abs(q-math.Round(q)) > 1e-9 {
			t.Fatalf("sample %d = %g not on the ADC grid", i, v)
		}
		if v > 1 || v < -1 {
			t.Fatalf("sample %d = %g beyond full scale", i, v)
		}
	}
}

func TestAcquireNoiseLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := SimulationChannel(0.05)
	tr := a.AcquireNoise(100, 1e-8, rng)
	if len(tr.Samples) != 100 {
		t.Fatalf("noise length = %d", len(tr.Samples))
	}
	if dsp.RMS(tr.Samples) == 0 {
		t.Fatal("noise record silent")
	}
}

func TestSetMatrix(t *testing.T) {
	var s Set
	if _, err := s.Matrix(); err == nil {
		t.Fatal("empty set must error")
	}
	s.Add(&Trace{Dt: 1, Samples: []float64{1, 2, 3}})
	s.Add(&Trace{Dt: 1, Samples: []float64{4, 5}})
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	rows, err := s.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 2 || len(rows[1]) != 2 {
		t.Fatalf("matrix shape wrong: %v", rows)
	}
	if rows[0][0] != 1 || rows[1][1] != 5 {
		t.Fatal("matrix values wrong")
	}
}

// TestBulkView checks trace.Bulk: a generator with block methods
// (*frand.Rand) comes back as itself, and any other Rand gets the
// per-draw adapter, whose blocks match frand's kernels on the same
// seed draw for draw.
func TestBulkView(t *testing.T) {
	fr := frand.NewRand(11)
	if b, ok := Bulk(fr).(*frand.Rand); !ok || b != fr {
		t.Fatalf("Bulk(*frand.Rand) = %T, want the generator itself", Bulk(fr))
	}
	ad := Bulk(rand.New(rand.NewSource(11)))
	if _, ok := ad.(perDraw); !ok {
		t.Fatalf("Bulk(*rand.Rand) = %T, want the per-draw adapter", ad)
	}
	for round := 0; round < 20; round++ {
		g, w := make([]float64, 300), make([]float64, 300)
		fr.FillNorm(g)
		ad.FillNorm(w)
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("round %d: FillNorm sample %d %v != adapter %v", round, i, g[i], w[i])
			}
		}
		for _, p := range []float64{math.NaN(), 0, 0.003, 0.5, 1} {
			if g, w := fr.SkipAtLeast(p, 700), ad.SkipAtLeast(p, 700); g != w {
				t.Fatalf("round %d p %v: SkipAtLeast %d != adapter %d", round, p, g, w)
			}
		}
		if g, w := fr.Intn(1000), ad.Intn(1000); g != w {
			t.Fatalf("round %d: streams diverged after the blocks (%d != %d)", round, g, w)
		}
	}
}
