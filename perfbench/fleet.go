package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"emtrust/internal/chip"
	"emtrust/internal/fleet"
)

// The fleet workload: an enrolled population of process-variation dies
// at severity-2 aging and 1% prevalence; one shard ticks every die each
// round as fast as it can for a fixed round count, while the aggregator
// runs on the other CPU. On a 2-vCPU Intel Xeon VM two shards doubled
// the rate but spread 5% between runs, against 3% for one. The verdict
// queue is sized for every verdict of the run, so none is shed and the
// alarm list is deterministic.
const (
	fleetDies   = 512
	fleetRounds = 40
	fleetShards = 1
)

func runFleet(seed int64, tr *tracer, setupOnly bool) (*sample, error) {
	s := &sample{Outcome: map[string]float64{}, Layers: map[string]float64{}}
	L := s.Layers
	fc := fleet.DefaultConfig()
	fc.Seed = seed
	fc.Dies = fleetDies
	fc.Shards = fleetShards
	fc.Prevalence = 0.01
	fc.Severity = 2
	fc.Rounds = fleetRounds
	fc.QueueSize = fleetDies * fleetRounds

	// Set-up: the reference chip build (fleet.New reuses it from the
	// build cache) and the enrollment of every die.
	t0 := time.Now()
	sp := tr.begin("chip.build")
	c, err := chip.New(fc.Chip)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	sp = tr.begin("fleet.enroll")
	svc, err := fleet.New(fc)
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
	run := tr.begin("fleet.run")
	if err := svc.Start(context.Background()); err != nil {
		return nil, err
	}
	var st fleet.Status
	queueMax := 0
	if tr == nil {
		st = svc.Wait()
	} else {
		// Traced: sample Status while the shards run, as a scraper of
		// /status would.
		done := make(chan fleet.Status, 1)
		go func() { done <- svc.Wait() }()
		tk := time.NewTicker(25 * time.Millisecond)
	poll:
		for {
			select {
			case st = <-done:
				break poll
			case <-tk.C:
				sp := tr.begin("fleet.status")
				q := svc.Status().QueueLen
				tr.end(sp)
				queueMax = max(queueMax, q)
			}
		}
		tk.Stop()
	}
	tr.end(run)
	s.PassS = time.Since(p0).Seconds()
	cacheDelta(before, chip.Stats(), L)

	alarms := svc.Alarms()
	infected := map[int]bool{}
	for _, id := range svc.InfectedDies() {
		infected[id] = true
	}
	hits, falses := 0, 0
	ids := ""
	for _, a := range alarms {
		if infected[a.Die] {
			hits++
		} else {
			falses++
		}
		ids += fmt.Sprintf("%d,", a.Die)
	}
	s.Ops = int(st.Verdicts)
	s.Attempted = fleetDies * fleetRounds
	// A quarantined die stops ticking by design (its sensor is
	// unusable, a maintenance event); its skipped ticks are not failures.
	skipped := s.Attempted - int(st.Verdicts) - int(st.Dropped)
	s.Failed = int(st.Dropped) + int(st.Crashes)
	o := s.Outcome
	o["infected"] = float64(len(infected))
	o["recall"] = float64(hits)
	o["false_alarms"] = float64(falses)
	o["rejected"] = float64(st.Rejected)
	o["quarantined"] = float64(st.Quarantined)
	o["verdicts"] = float64(st.Verdicts)
	s.Digest = ids

	s.check(falses == 0, "%d false discoveries in the alarm list %s", falses, ids)
	s.check(st.QueueLen == 0, "verdict queue not drained: %d left", st.QueueLen)
	s.check(svc.Goroutines() == 0, "%d service goroutines outlived Wait", svc.Goroutines())
	s.check(st.Dropped == 0 && st.Crashes == 0, "%d verdicts shed, %d shard crashes", st.Dropped, st.Crashes)
	s.check(skipped >= 0 && skipped <= st.Quarantined*fleetRounds,
		"%d verdicts of %d ticks with %d dies quarantined", st.Verdicts, s.Attempted, st.Quarantined)
	if len(s.Problems) > 0 {
		s.Failed = s.Attempted
	}

	if tr != nil {
		L["chip.build_ms"] = durations(tr.spans, "chip.build")[0] / 1e3
		L["fleet.enroll_ms_per_die"] = durations(tr.spans, "fleet.enroll")[0] / 1e3 / fleetDies
		L["fleet.queue_len_max"] = float64(queueMax)
		L["fleet.status_us"] = median(durations(tr.spans, "fleet.status"))
		if st.Verdicts > 0 {
			L["fleet.rejected_ratio"] = float64(st.Rejected) / float64(st.Verdicts)
		}
		// Service.Start is monolithic: time the bare tick of every die
		// (the service is stopped, so TickOnce is safe) and one degraded
		// acquisition, and scale them by the verdicts the run produced.
		tick := timeEach(fleetDies, func(i int) { svc.TickOnce(i, fleetRounds+1) })
		L["fleet.tick_p50_us"] = quantile(tick, 0.5)
		L["fleet.tick_p99_us"] = quantile(tick, 0.99)

		if err := c.DeactivateAll(); err != nil {
			return nil, err
		}
		c.EnableA2(false)
		var capUs []float64
		var seqs []uint64
		var cp *chip.Capture
		for i := 0; i < 200; i++ {
			capUs = append(capUs, timeEach(1, func(int) { cp, err = c.CapturePT(fc.Plaintext, fc.Key, 32) })...)
			if err != nil {
				return nil, err
			}
			seqs = append(seqs, cp.Seq())
		}
		captureStats(capUs, seqs, L)
		replayDegrade(cp.Sensor, cp.Dt, fc.Severity, svc.Config().DriftSpan, 2000, L)
		wins := make([]window, 20)
		for i := range wins {
			wins[i] = window{pt: fc.Plaintext}
		}
		if err := replayStack(c, wins, fc.Key, 32, chip.SimulationChannels().Sensor, L); err != nil {
			return nil, err
		}
		shards := float64(fc.Shards)
		tickS := float64(st.Verdicts) * mean(tick) / 1e6 / shards
		degS := float64(st.Verdicts) * float64(svc.Config().TickAverages) * L["degrade.acquire_us"] / 1e6 / shards
		finishLedger(L, map[string]float64{"fleet": math.Max(0, tickS-degS), "degrade": math.Min(degS, tickS)}, s.PassS)
	}
	return s, nil
}
