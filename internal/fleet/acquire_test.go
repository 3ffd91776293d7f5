package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"emtrust/internal/frand"
)

// referenceAcquire reproduces Die.acquire through the allocating
// pre-pooling path: one fresh RNG per draw (dieRand), one allocating
// channel.AcquireAt per draw on a pre-scaled waveform, then the
// per-sample combine in the same sequential arithmetic order acquire
// uses. Agreement must be bit-exact — it proves the in-place reseed,
// the buffer reuse, and the scale folding changed nothing.
func referenceAcquire(d *Die, idx int, wave []float64, scale float64, purpose int, index uint64) []float64 {
	cfg := d.pop.cfg
	m := uint64(cfg.TickAverages)
	scaled := wave
	if scale != 1 {
		scaled = make([]float64, len(wave))
		for i, v := range wave {
			scaled[i] = v * scale
		}
	}
	draws := make([][]float64, m)
	for k := uint64(0); k < m; k++ {
		rng := dieRand(cfg.Seed, d.ID, purpose, index*m+k)
		tr := d.channel.AcquireAt(idx, scaled, d.pop.dt, rng)
		draws[k] = append([]float64(nil), tr.Samples...)
	}
	n := len(draws[0])
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		sum, lo, hi := draws[0][j], draws[0][j], draws[0][j]
		for k := uint64(1); k < m; k++ {
			v := draws[k][j]
			sum += v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if m >= 4 {
			out[j] = (sum - lo - hi) * (1 / float64(m-2))
		} else {
			out[j] = sum * (1 / float64(m))
		}
	}
	return out
}

// TestAcquireTrimEdgeCases pins the averaging-count boundary: one draw
// passes through untouched, two and three draws take the plain mean
// (trimming min and max would leave 0 or 1 samples), and four or more
// switch to the trimmed mean. Each count is checked bit-exactly against
// the allocating reference path.
func TestAcquireTrimEdgeCases(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4, 6} {
		t.Run(fmt.Sprintf("averages=%d", m), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 11
			cfg.Dies = 2
			cfg.Shards = 1
			cfg.TickAverages = m
			cfg.GoldenTraces = 6
			cfg.NullTraces = 8
			cfg.Severity = 2 // bursts and dropouts make the trim visible
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := s.dies[0]
			for round := 0; round < 4; round++ {
				idx := d.fitCount + round
				want := referenceAcquire(d, idx, d.dormant, 1.25, purposeTick, uint64(round))
				got := d.acquire(idx, d.dormant, 1.25, purposeTick, uint64(round))
				if len(got.Samples) != len(want) {
					t.Fatalf("round %d: %d samples, want %d", round, len(got.Samples), len(want))
				}
				for j := range want {
					if got.Samples[j] != want[j] {
						t.Fatalf("round %d sample %d: %v != reference %v (m=%d)",
							round, j, got.Samples[j], want[j], m)
					}
				}
			}
		})
	}
}

// TestAcquireTrimVsPlainMean demonstrates the boundary is real: with
// four or more draws the combined trace is NOT the plain mean of the
// draws whenever the channel glitches a draw, while at three it is
// exactly the plain mean.
func TestAcquireTrimVsPlainMean(t *testing.T) {
	plainMean := func(d *Die, idx int, index uint64) []float64 {
		cfg := d.pop.cfg
		m := uint64(cfg.TickAverages)
		var sum []float64
		for k := uint64(0); k < m; k++ {
			rng := dieRand(cfg.Seed, d.ID, purposeTick, index*m+k)
			tr := d.channel.AcquireAt(idx, d.dormant, d.pop.dt, rng)
			if sum == nil {
				sum = make([]float64, len(tr.Samples))
			}
			for j, v := range tr.Samples {
				sum[j] += v
			}
		}
		for j := range sum {
			sum[j] /= float64(m)
		}
		return sum
	}
	build := func(m int) (*Service, *Die) {
		cfg := DefaultConfig()
		cfg.Seed = 11
		cfg.Dies = 2
		cfg.Shards = 1
		cfg.TickAverages = m
		cfg.GoldenTraces = 6
		cfg.NullTraces = 8
		cfg.Severity = 3
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, s.dies[0]
	}

	_, d4 := build(4)
	diverged := false
	for round := 0; round < 16 && !diverged; round++ {
		idx := d4.fitCount + round
		mean := plainMean(d4, idx, uint64(round))
		got := d4.acquire(idx, d4.dormant, 1, purposeTick, uint64(round))
		for j := range mean {
			if got.Samples[j] != mean[j] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Error("trimmed mean at TickAverages=4 never diverged from the plain mean across 16 glitchy rounds")
	}
}

// TestAcquireReturnsOwnedBuffer documents the aliasing contract: the
// trace acquire returns is the die-owned accumulator, overwritten by
// the next acquire. Retaining callers (enrollment) must Clone.
func TestAcquireReturnsOwnedBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Dies = 2
	cfg.Shards = 1
	cfg.TickAverages = 2
	cfg.GoldenTraces = 6
	cfg.NullTraces = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := s.dies[0]
	t1 := d.acquire(0, d.dormant, 1, purposeTick, 0)
	first := t1.Samples[0]
	t2 := d.acquire(1, d.dormant, 1, purposeTick, 1)
	if &t1.Samples[0] != &t2.Samples[0] {
		t.Fatal("acquire returned distinct buffers; the pooled contract expects the shared accumulator")
	}
	if t1.Samples[0] == first {
		t.Skip("second acquisition coincidentally matched the first sample; aliasing not observable")
	}
}

// TestAccumulateDrawMatchesBranchy checks acquire's branch-free combine
// against the compare-and-branch form it replaced, column by column,
// on draws mixing ±0, ±Inf, NaN and ordinary values for every draw
// count acquire trims at. The trimmed output must agree bit for bit,
// or be NaN in both.
func TestAccumulateDrawMatchesBranchy(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 2.5, -2.5, 1e-300}
	rng := frand.NewRand(5)
	const cols = 4096
	for m := 4; m <= 8; m++ {
		draws := make([][]float64, m)
		for k := range draws {
			draws[k] = make([]float64, cols)
			for j := range draws[k] {
				// Mostly zeros and small sets so ties and sign-of-zero
				// cases are common.
				draws[k][j] = vals[rng.Intn(len(vals))]
			}
		}
		acc := append([]float64(nil), draws[0]...)
		lo := append([]float64(nil), draws[0]...)
		hi := append([]float64(nil), draws[0]...)
		for _, d := range draws[1:] {
			accumulateDraw(acc, lo, hi, d)
		}
		inv := 1 / float64(m-2)
		for j := 0; j < cols; j++ {
			sum, l, h := draws[0][j], draws[0][j], draws[0][j]
			for _, d := range draws[1:] {
				v := d[j]
				sum += v
				if v < l {
					l = v
				}
				if v > h {
					h = v
				}
			}
			want := (sum - l - h) * inv
			got := (acc[j] - lo[j] - hi[j]) * inv
			if math.IsNaN(want) && math.IsNaN(got) {
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				col := make([]float64, m)
				for k := range draws {
					col[k] = draws[k][j]
				}
				t.Fatalf("m=%d column %d %v: trimmed %v, branchy form %v", m, j, col, got, want)
			}
		}
	}
}

// countingSource counts the raw 63/64-bit steps math/rand takes from
// its source; every distribution draw costs one or more.
type countingSource struct {
	frand.Source
	steps int
}

func (s *countingSource) Int63() int64   { s.steps++; return s.Source.Int63() }
func (s *countingSource) Uint64() uint64 { s.steps++; return s.Source.Uint64() }

// countingRand counts the distribution draws a channel makes. It has no
// block methods, so the stages reach it through trace.Bulk's per-draw
// adapter and every draw is one call here.
type countingRand struct {
	*rand.Rand
	uniform, normal, intn int
}

func (c *countingRand) Float64() float64     { c.uniform++; return c.Rand.Float64() }
func (c *countingRand) NormFloat64() float64 { c.normal++; return c.Rand.NormFloat64() }
func (c *countingRand) Intn(n int) int       { c.intn++; return c.Rand.Intn(n) }

// TestDrawsPerTick counts the randomness a monitored tick consumes at
// the service default TickAverages=8 and the benchmark's severity 2
// (DESIGN.md §10 quotes these numbers). Each of the 8 acquisitions is
// replayed through counting generators seeded like the die's own and
// must reproduce Die.acquire bit for bit, so the counts are the real
// path's. Per 512-sample acquisition: one phase uniform, 512 sensor
// normals, 512 jitter normals, 512 dropout uniforms, ~511 stuck and
// ~512 burst uniforms (fewer by the samples a run covers), plus each
// run's length and a burst's normals.
func TestDrawsPerTick(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dies = 1
	cfg.Shards = 1
	cfg.Severity = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := s.dies[0]
	m := uint64(d.pop.cfg.TickAverages)
	if m != 8 {
		t.Fatalf("default TickAverages %d, want 8", m)
	}
	const round = 0
	idx := d.fitCount + round
	src := &countingSource{}
	cr := &countingRand{Rand: rand.New(src)}
	var seeds int
	for k := uint64(0); k < m; k++ {
		cr.Seed(dieSeed(d.pop.cfg.Seed, d.ID, purposeTick, round*m+k))
		seeds++
		d.channel.AcquireAt(idx, d.dormant, d.pop.dt, cr)
	}
	want := referenceAcquire(d, idx, d.dormant, 1, purposeTick, round)
	got := d.acquire(idx, d.dormant, 1, purposeTick, round)
	for j := range want {
		if got.Samples[j] != want[j] {
			t.Fatalf("sample %d: acquire %v != reference %v", j, got.Samples[j], want[j])
		}
	}
	n := len(d.dormant)
	t.Logf("tick of %d acquisitions x %d samples: %d seeds, %d uniform + %d normal + %d bounded-int draws = %d source steps",
		m, n, seeds, cr.uniform, cr.normal, cr.intn, src.steps)
	// Pinned for (seed 1, die 0, round 0); a change here means the
	// stream each tick consumes changed.
	if n != 512 || cr.uniform != 12217 || cr.normal != 8244 || cr.intn != 4 || src.steps != 20811 {
		t.Fatalf("draw counts moved: n=%d uniform=%d normal=%d intn=%d steps=%d", n, cr.uniform, cr.normal, cr.intn, src.steps)
	}
}
