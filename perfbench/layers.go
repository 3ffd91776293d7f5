package main

import (
	"math/rand"
	"time"

	"emtrust/internal/aes"
	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/degrade"
	"emtrust/internal/dsp"
	"emtrust/internal/emfield"
	"emtrust/internal/frand"
	"emtrust/internal/logic"
	"emtrust/internal/power"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// window is one capture window's stimulus for the layer replays: an
// encryption of pt with the given Trojan triggers held high.
type window struct {
	pt     []byte
	active []trojan.Kind
}

// replayStack drives the workload's own stimulus through the layers
// under chip.CapturePT one at a time, outside the chip: a bare
// logic.Simulator on the chip's netlist (logic.cycle_ns,
// logic.toggles_per_cycle), the same toggles drained through a
// power.Recorder (power.cycle_ns), emfield.Coupling.EMF on the
// recorded currents (emfield.emf_us), an uncached coupling build
// (emfield.coupling_ms) and an acquisition through ch
// (trace.acquire_us).
func replayStack(c *chip.Chip, wins []window, key []byte, cycles int, ch trace.Channel, L map[string]float64) error {
	sim, err := logic.New(c.Netlist())
	if err != nil {
		return err
	}
	sim.BatchToggles(true)
	cfg := c.Config()
	rec, err := power.NewRecorder(cfg.Power, c.Floorplan())
	if err != nil {
		return err
	}
	keyBits := aes.BytesToBits(key)
	rng := rand.New(rand.NewSource(1))
	var logicNs, powerNs int64
	var emfUs, acqUs []float64
	ticks, toggles := 0, 0
	for _, w := range wins {
		for _, k := range trojan.Kinds() {
			on := uint64(0)
			for _, a := range w.active {
				if a == k {
					on = 1
				}
			}
			// Chips built without the stock Trojans have no trigger
			// ports; the error only says so.
			_ = sim.SetPortUint(k.TriggerPort(), on)
		}
		rec.Begin(cycles)
		for cyc := 0; cyc < cycles; cyc++ {
			t0 := time.Now()
			if cyc == 1 {
				if err := sim.SetPortBits(aes.PortPT, aes.BytesToBits(w.pt)); err != nil {
					return err
				}
				if err := sim.SetPortBits(aes.PortKey, keyBits); err != nil {
					return err
				}
				if err := sim.SetPortUint(aes.PortStart, 1); err != nil {
					return err
				}
				sim.Settle()
			} else if cyc == 2 {
				if err := sim.SetPortUint(aes.PortStart, 0); err != nil {
					return err
				}
				sim.Settle()
			}
			sim.Tick()
			ev := sim.TakeToggles()
			t1 := time.Now()
			rec.DrainToggles(ev)
			if err := rec.EndCycle(); err != nil {
				return err
			}
			logicNs += int64(t1.Sub(t0))
			powerNs += int64(time.Since(t1))
			ticks++
			toggles += len(ev)
		}
		var emf []float64
		emfUs = append(emfUs, timeEach(1, func(int) { emf = c.SensorCoupling().EMF(rec.Currents(), rec.Dt()) })...)
		acqUs = append(acqUs, timeEach(1, func(int) { ch.Acquire(emf, rec.Dt(), rng) })...)
	}
	if ticks > 0 {
		L["logic.cycle_ns"] = float64(logicNs) / float64(ticks)
		L["logic.toggles_per_cycle"] = float64(toggles) / float64(ticks)
		L["power.cycle_ns"] = float64(powerNs) / float64(ticks)
	}
	L["emfield.emf_us"] = median(emfUs)
	L["trace.acquire_us"] = median(acqUs)
	coupling := timeEach(3, func(int) {
		_, err = emfield.NewCoupling(c.SensorCoupling().Coil, c.Floorplan().Grid, cfg.TileLoopArea, cfg.Quad)
	})
	L["emfield.coupling_ms"] = median(coupling) / 1e3
	return err
}

// replayDegrade times degrade.Channel.AcquireAtInto at the given
// severity on one clean waveform, the acquisition a fleet die repeats
// TickAverages times per verdict, with the die's reseed-per-draw
// frand generator.
func replayDegrade(clean []float64, dt, severity float64, span, n int, L map[string]float64) {
	prof := degrade.Profile{Severity: severity, RefRMS: dsp.RMS(clean), RefPeak: dsp.PeakAbs(clean), Span: span}
	ch := degrade.Wrap(chip.SimulationChannels().Sensor, prof.Stages()...)
	rng := frand.NewRand(0)
	dst := &trace.Trace{}
	us := timeEach(n, func(i int) {
		rng.Seed(int64(i))
		dst = ch.AcquireAtInto(i, dst, clean, 1, dt, rng)
	})
	L["degrade.acquire_us"] = median(us)
}

// replayCore times the detector stages of one verdict on the given
// traces: the channel-health gate, the fingerprint distance and the
// spectral comparison.
func replayCore(health *core.ChannelHealth, fp *core.Fingerprint, sd *core.SpectralDetector, ts []*trace.Trace, L map[string]float64) {
	L["core.health_us"] = median(timeEach(len(ts), func(i int) { health.Check(ts[i]) }))
	L["core.fingerprint_us"] = median(timeEach(len(ts), func(i int) { fp.Evaluate(ts[i]) }))
	L["core.spectral_us"] = median(timeEach(len(ts), func(i int) { sd.Evaluate(ts[i]) }))
}

// replaySpectrum times dsp.Plan.SpectrumInto at the traces' length.
func replaySpectrum(ts []*trace.Trace, w dsp.Window, L map[string]float64) {
	if len(ts) == 0 {
		return
	}
	p := dsp.PlanForLength(len(ts[0].Samples))
	var dst []float64
	L["dsp.spectrum_us"] = median(timeEach(len(ts), func(i int) { dst = p.SpectrumInto(dst, ts[i].Samples, w) }))
}

// cacheDelta differences two chip.Stats snapshots into the capture and
// build cache hit ratios (0 when there was no lookup).
func cacheDelta(before, after chip.CacheStats, L map[string]float64) {
	ratio := func(h, m uint64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	L["chip.capture_hit_ratio"] = ratio(after.CaptureHits-before.CaptureHits, after.CaptureMisses-before.CaptureMisses)
	L["chip.build_hit_ratio"] = ratio(after.BuildHits-before.BuildHits, after.BuildMisses-before.BuildMisses)
}

// captureStats fills chip.capture_p50_us/p99_us and chip.replay_ratio
// from per-capture durations and the captures' Seq identities: a Seq
// seen before means the capture was served from the fixed-point memo or
// the capture cache.
func captureStats(us []float64, seqs []uint64, L map[string]float64) {
	L["chip.capture_p50_us"] = quantile(us, 0.5)
	L["chip.capture_p99_us"] = quantile(us, 0.99)
	seen := make(map[uint64]bool, len(seqs))
	repeats := 0
	for _, s := range seqs {
		if seen[s] {
			repeats++
		}
		seen[s] = true
	}
	if len(seqs) > 0 {
		L["chip.replay_ratio"] = float64(repeats) / float64(len(seqs))
	}
}
