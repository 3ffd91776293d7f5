package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"emtrust/internal/attack"
	"emtrust/internal/chip"
	"emtrust/internal/trace"
)

// The cpa workload: attack.Run over cpaTraces random plaintexts drawn
// from the seed under the fixed FIPS-197 key. Every stimulus is unique,
// so no capture cache helps and the gate simulator dominates. The check
// holds the attack to the repository's own bar (TestCPARecoversKey: at
// least 12 of 16 key bytes at 2000 traces); some seeds recover 15.
const (
	cpaTraces   = 2000
	cpaMinBytes = 12
)

func runCPA(seed int64, tr *tracer, setupOnly bool) (*sample, error) {
	s := &sample{Outcome: map[string]float64{}, Layers: map[string]float64{}}
	L := s.Layers
	cfg := chip.DefaultConfig()
	cfg.Seed = seed
	cfg.WithTrojans = false
	cfg.WithA2 = false
	acfg := attack.DefaultCPAConfig()
	acfg.Traces = cpaTraces

	t0 := time.Now()
	sp := tr.begin("chip.build")
	c, err := chip.New(cfg)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	s.SetupS = time.Since(t0).Seconds()
	if setupOnly {
		return s, nil
	}

	before := chip.Stats()
	p0 := time.Now()
	sp = tr.begin("attack.run")
	res, err := attack.Run(c, fipsKey, acfg, rand.New(rand.NewSource(seed)))
	tr.end(sp)
	s.PassS = time.Since(p0).Seconds()
	if err != nil {
		return nil, err
	}
	cacheDelta(before, chip.Stats(), L)

	s.Ops, s.Attempted = acfg.Traces, acfg.Traces
	s.Outcome["key_bytes"] = float64(res.Evaluate(fipsKey))
	d := ""
	for _, b := range res.Bytes {
		d += fmt.Sprintf("%02x%016x", b.Guess, math.Float64bits(b.Correlation))
	}
	s.Digest = d
	s.check(res.Correct >= cpaMinBytes, "CPA recovered %d/16 key bytes, want >= %d", res.Correct, cpaMinBytes)
	if len(s.Problems) > 0 {
		s.Failed = s.Attempted
	}

	if tr != nil {
		L["chip.build_ms"] = durations(tr.spans, "chip.build")[0] / 1e3
		// attack.Run is monolithic: replay its captures (same plaintext
		// stream, same reset-before-capture protocol) through the chip
		// and the receiver, and charge the rest of the run to the
		// correlation.
		rx := chip.Channels{
			Sensor: trace.SimulationChannel(acfg.ReceiverNoise),
			Probe:  trace.SimulationChannel(acfg.ReceiverNoise),
		}
		rng := rand.New(rand.NewSource(seed))
		var capUs, acqUs []float64
		var seqs []uint64
		var wins []window
		for i := 0; i < acfg.Traces; i++ {
			pt := make([]byte, 16)
			rng.Read(pt)
			if i < 100 {
				wins = append(wins, window{pt: pt})
			}
			c.ResetState()
			var cp *chip.Capture
			capUs = append(capUs, timeEach(1, func(int) { cp, err = c.CapturePT(pt, fipsKey, acfg.Cycles) })...)
			if err != nil {
				return nil, err
			}
			seqs = append(seqs, cp.Seq())
			acqUs = append(acqUs, timeEach(1, func(int) { c.Acquire(cp, rx) })...)
		}
		captureStats(capUs, seqs, L)
		runS := durations(tr.spans, "attack.run")[0] / 1e6
		capS, acqS := sum(capUs)/1e6, sum(acqUs)/1e6
		L["attack.correlate_s"] = runS - capS - acqS
		if err := replayStack(c, wins, fipsKey, acfg.Cycles, rx.Sensor, L); err != nil {
			return nil, err
		}
		finishLedger(L, map[string]float64{"chip": capS, "trace": acqS, "attack": runS - capS - acqS}, s.PassS)
	}
	return s, nil
}
