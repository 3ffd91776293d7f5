package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"emtrust/internal/chip"
	"emtrust/internal/core"
	"emtrust/internal/trace"
	"emtrust/internal/trojan"
)

// The monitor workload: one device on the fixed FIPS-197 stimulus
// streams traces one at a time through core.Monitor on the Section V-B
// schedule (dormant, T1..T4 each switched on and off with SetTrojan,
// dormant), then an idle-window A2 segment (Figure 4) through a
// spectral-only monitor fitted on dormant idle windows.
const (
	monPhaseTraces = 200
	monGolden      = 50
	monCycles      = 32
	monIdleCycles  = 512
	monIdleGolden  = 10
	monA2Dormant   = 50
	monA2Firing    = 100
)

var (
	fipsKey = []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	fipsPT  = []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}
)

// monPhase is one segment of the activation schedule; active is nil for
// a dormant phase.
type monPhase struct {
	name   string
	active *trojan.Kind
}

func monSchedule() []monPhase {
	ph := []monPhase{{name: "dormant_pre"}}
	for _, k := range trojan.Kinds() {
		k := k
		ph = append(ph, monPhase{name: fmt.Sprintf("T%d", int(k)), active: &k})
	}
	return append(ph, monPhase{name: "dormant_post"})
}

func runMonitor(seed int64, tr *tracer, setupOnly bool) (*sample, error) {
	s := &sample{Outcome: map[string]float64{}, Layers: map[string]float64{}}
	L := s.Layers
	ch := chip.MeasurementChannels()

	// Set-up: chip build, golden captures, detector fits.
	t0 := time.Now()
	sp := tr.begin("chip.build")
	cfg := chip.DefaultConfig()
	cfg.Seed = seed
	c, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	if err := c.DeactivateAll(); err != nil {
		return nil, err
	}
	c.EnableA2(false)
	golden := make([]*trace.Trace, monGolden)
	for i := range golden {
		cp, err := c.CapturePT(fipsPT, fipsKey, monCycles)
		if err != nil {
			return nil, err
		}
		golden[i], _ = c.Acquire(cp, ch)
	}
	idleGolden := make([]*trace.Trace, monIdleGolden)
	for i := range idleGolden {
		cp, err := c.CaptureIdle(monIdleCycles)
		if err != nil {
			return nil, err
		}
		idleGolden[i], _ = c.Acquire(cp, ch)
	}
	fit := tr.begin("core.fit")
	fp, err := core.BuildFingerprint(golden, core.DefaultFingerprintConfig())
	if err != nil {
		return nil, err
	}
	sd, err := core.BuildSpectralDetector(golden, core.DefaultSpectralConfig())
	if err != nil {
		return nil, err
	}
	health, err := core.BuildChannelHealth(golden, core.DefaultHealthConfig())
	if err != nil {
		return nil, err
	}
	sdIdle, err := core.BuildSpectralDetector(idleGolden, core.DefaultSpectralConfig())
	if err != nil {
		return nil, err
	}
	tr.end(fit)
	mon, err := core.NewMonitorWith(fp, sd, core.HardenedOptions(health))
	if err != nil {
		return nil, err
	}
	monA2, err := core.NewMonitor(nil, sdIdle, 1)
	if err != nil {
		return nil, err
	}
	s.SetupS = time.Since(t0).Seconds()
	if setupOnly {
		return s, nil
	}
	if tr != nil {
		L["chip.build_ms"] = durations(tr.spans, "chip.build")[0] / 1e3
		L["core.fit_ms"] = durations(tr.spans, "core.fit")[0] / 1e3
	}

	// Measured pass.
	digest := fnv.New64a()
	var buf [8]byte
	hashTrace := func(t *trace.Trace) {
		for _, v := range t.Samples {
			b := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			digest.Write(buf[:])
		}
	}
	var seqs []uint64
	var kept, idleKept []*trace.Trace
	// one streams a single trace: capture, acquire, submit, and wait for
	// its verdict; the latency runs from capture start to delivery.
	one := func(m *core.Monitor, capture func() (*chip.Capture, error), idle bool) (core.Verdict, error) {
		start := time.Now()
		name := "chip.capture"
		if idle {
			name = "chip.capture_idle"
		}
		sp := tr.begin(name)
		cp, err := capture()
		tr.end(sp)
		if err != nil {
			return core.Verdict{}, err
		}
		sp = tr.begin("trace.acquire")
		t, _ := c.Acquire(cp, ch)
		tr.end(sp)
		sp = tr.begin("core.verdict")
		m.Submit(t)
		v, ok := <-m.Verdicts()
		tr.end(sp)
		if !ok {
			return v, fmt.Errorf("monitor closed its verdict stream early")
		}
		s.LatencyMs = append(s.LatencyMs, float64(time.Since(start).Nanoseconds())/1e6)
		hashTrace(t)
		seqs = append(seqs, cp.Seq())
		if len(seqs)%4 == 0 {
			if idle {
				idleKept = append(idleKept, t)
			} else {
				kept = append(kept, t)
			}
		}
		return v, nil
	}
	encrypt := func() (*chip.Capture, error) { return c.CapturePT(fipsPT, fipsKey, monCycles) }
	idle := func() (*chip.Capture, error) {
		caps, err := c.CaptureIdleChain(monIdleCycles, 1)
		if err != nil {
			return nil, err
		}
		return caps[0], nil
	}
	count := func(m *core.Monitor, capture func() (*chip.Capture, error), isIdle bool, n int, name string) error {
		alarms := 0
		for i := 0; i < n; i++ {
			v, err := one(m, capture, isIdle)
			if err != nil {
				return err
			}
			if v.Alarm() {
				alarms++
			}
			if v.Health.Rejected {
				s.Outcome["rejected"]++
			}
		}
		s.Outcome["alarms_"+name] = float64(alarms)
		return nil
	}

	before := chip.Stats()
	p0 := time.Now()
	root := tr.begin("monitor.pass")
	var active *trojan.Kind
	for _, ph := range monSchedule() {
		sp := tr.begin("chip.set_trojan")
		if active != nil {
			if err := c.SetTrojan(*active, false); err != nil {
				return nil, err
			}
		}
		if ph.active != nil {
			if err := c.SetTrojan(*ph.active, true); err != nil {
				return nil, err
			}
		}
		tr.end(sp)
		active = ph.active
		if err := count(mon, encrypt, false, monPhaseTraces, ph.name); err != nil {
			return nil, err
		}
	}
	if err := count(monA2, idle, true, monA2Dormant, "a2_dormant"); err != nil {
		return nil, err
	}
	sp = tr.begin("chip.a2_warmup")
	c.EnableA2(true)
	if _, err := idle(); err != nil {
		return nil, err
	}
	tr.end(sp)
	s.check(c.A2().Firing(), "A2 charge pump not firing after a %d-cycle warm-up", monIdleCycles)
	if err := count(monA2, idle, true, monA2Firing, "a2_firing"); err != nil {
		return nil, err
	}
	tr.end(root)
	s.PassS = time.Since(p0).Seconds()
	mon.Close()
	monA2.Close()
	cacheDelta(before, chip.Stats(), L)

	s.Ops = len(s.LatencyMs)
	s.Attempted = 6*monPhaseTraces + monA2Dormant + monA2Firing
	s.Digest = fmt.Sprintf("%016x", digest.Sum64())
	o := s.Outcome
	o["recall"] = o["alarms_T1"] + o["alarms_T2"] + o["alarms_T3"] + o["alarms_T4"] + o["alarms_a2_firing"]
	o["false_alarms"] = o["alarms_dormant_pre"] + o["alarms_dormant_post"] + o["alarms_a2_dormant"]

	// Output checks. T3 and T4 read no alarms on the measurement
	// channel (as in trustmon); they are reported, not gated.
	s.check(s.Ops == s.Attempted, "delivered %d verdicts of %d submitted", s.Ops, s.Attempted)
	s.check(o["alarms_T1"] > 0 && o["alarms_T2"] > 0, "T1/T2 phases raised no alarm (%v/%v)", o["alarms_T1"], o["alarms_T2"])
	s.check(o["alarms_a2_firing"] > 0, "the firing A2 raised no spectral alarm")
	s.check(o["false_alarms"] == 0, "%v alarms in dormant phases", o["false_alarms"])
	if len(s.Problems) > 0 {
		s.Failed = s.Attempted
	}

	if tr != nil {
		us := append(durations(tr.spans, "chip.capture"), durations(tr.spans, "chip.capture_idle")...)
		captureStats(us, seqs, L)
		replayCore(health, fp, sd, kept, L)
		replaySpectrum(idleKept, core.DefaultSpectralConfig().Window, L)
		var wins []window
		for _, ph := range monSchedule() {
			for i := 0; i < 20; i++ {
				w := window{pt: fipsPT}
				if ph.active != nil {
					w.active = []trojan.Kind{*ph.active}
				}
				wins = append(wins, w)
			}
		}
		if err := replayStack(c, wins, fipsKey, monCycles, ch.Sensor, L); err != nil {
			return nil, err
		}
		finishLedger(L, selfTimes(tr.spans, root), s.PassS)
	}
	return s, nil
}
