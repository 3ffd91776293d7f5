package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"emtrust/internal/campaign"
	"emtrust/internal/chip"
	"emtrust/internal/experiments"
	"emtrust/internal/netlist"
)

// The campaign workload: the generated-Trojan sweep of
// experiments.Campaign with the campaign seed taken from the workload
// seed, 105 members measured and 21 searched, at the trace counts of
// the experiment's acceptance test.
const campSearchReplay = 7

func runCampaign(seed int64, tr *tracer, setupOnly bool) (*sample, error) {
	s := &sample{Outcome: map[string]float64{}, Layers: map[string]float64{}}
	L := s.Layers
	ecfg := experiments.DefaultConfig()
	ecfg.Chip.Seed = seed
	ecfg.GoldenTraces = 20
	ecfg.TestTraces = 16
	gen := campaign.DefaultConfig()
	gen.Seed = seed

	// Set-up: the golden build every member is derived from.
	t0 := time.Now()
	gcfg := ecfg.Chip
	gcfg.WithTrojans = false
	gcfg.WithA2 = false
	sp := tr.begin("chip.build")
	golden, err := chip.New(gcfg)
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
	sp = tr.begin("campaign.run")
	res, err := experiments.Campaign(ecfg)
	tr.end(sp)
	s.PassS = time.Since(p0).Seconds()
	if err != nil {
		return nil, err
	}
	cacheDelta(before, chip.Stats(), L)

	var tpr, fpr float64
	found := false
	for _, p := range res.ROC {
		if p.Margin == 1.0 {
			tpr, fpr, found = p.TPR, p.FPR, true
		}
	}
	s.Ops, s.Attempted = res.Members, gen.Members
	s.Outcome["recall"] = tpr
	s.Outcome["false_alarms"] = fpr
	s.Digest = fmt.Sprintf("%016x/%016x", res.Hash, res.SampleNetlistHash)
	s.check(res.Members == gen.Members, "campaign has %d members, want %d", res.Members, gen.Members)
	s.check(res.Reproducible, "campaign hash does not regenerate from its seed")
	s.check(res.SampleNetlistHash != 0, "missing netlist reproducibility witness")
	s.check(found && tpr >= 0.9 && fpr <= 0.1, "margin 1.0: TPR %.3f (want >= 0.9), FPR %.3f (want <= 0.1)", tpr, fpr)
	if len(s.Problems) > 0 {
		s.Failed = s.Attempted
	}

	if tr != nil {
		// experiments.Campaign is monolithic: replay generation, the GA
		// search on part of the searched subset and member builds, and
		// scale them to the pass. What remains (per-member capture,
		// fingerprint, hardened monitor and sensor-array measurement)
		// stays unattributed.
		gn, gfp := golden.Netlist(), golden.Floorplan()
		tileOf := func(v netlist.Net) int { return gfp.Grid.CellTile[gn.Driver(v)] }
		stim := campaign.AESStimulus()
		var camp *campaign.Campaign
		genS := timeEach(1, func(int) { camp, err = campaign.Generate(gn, stim, tileOf, gen) })[0] / 1e6
		if err != nil {
			return nil, err
		}
		L["campaign.generate_s"] = genS

		step := len(camp.Members) / ecfg.CampaignSearchMembers
		var searchMs, builds, coverage []float64
		var member *chip.Chip
		for i := 0; i < campSearchReplay; i++ {
			m := camp.Members[i*step]
			// Odd members are outside the searched subset and evicted
			// from the build cache by the pass, so their builds miss.
			mcfg := gcfg
			mcfg.Insert = camp.Members[i*step+1]
			b0 := chip.Stats()
			us := timeEach(1, func(int) { member, err = chip.New(mcfg) })
			if err != nil {
				return nil, err
			}
			if chip.Stats().BuildMisses > b0.BuildMisses {
				builds = append(builds, us[0]/1e3)
			}
			scfg := gcfg
			scfg.Insert = m
			sc, err := chip.New(scfg)
			if err != nil {
				return nil, err
			}
			var sr *campaign.SearchResult
			ms := timeEach(1, func(int) {
				var e *campaign.Evaluator
				if e, err = campaign.NewEvaluator(sc.Netlist(), stim, m, 0); err == nil {
					sr, err = campaign.Search(e, campaign.GA{}, ecfg.CampaignSearchPop, ecfg.CampaignSearchGens, campaign.SearchSeed(gen.Seed, m.ID))
				}
			})[0] / 1e3
			if err != nil {
				return nil, err
			}
			searchMs = append(searchMs, ms)
			coverage = append(coverage, sr.BestFrac)
		}
		L["chip.build_ms"] = median(builds)
		L["campaign.search_ms"] = median(searchMs)
		L["campaign.coverage"] = mean(coverage)

		rng := rand.New(rand.NewSource(seed))
		var capUs []float64
		var seqs []uint64
		var wins []window
		for i := 0; i < 100; i++ {
			pt := make([]byte, 16)
			rng.Read(pt)
			if i < 20 {
				wins = append(wins, window{pt: pt})
			}
			var cp *chip.Capture
			capUs = append(capUs, timeEach(1, func(int) { cp, err = member.CapturePT(pt, ecfg.Key, ecfg.CaptureCycles) })...)
			if err != nil {
				return nil, err
			}
			seqs = append(seqs, cp.Seq())
		}
		captureStats(capUs, seqs, L)
		if err := replayStack(member, wins, ecfg.Key, ecfg.CaptureCycles, chip.SimulationChannels().Sensor, L); err != nil {
			return nil, err
		}
		procs := float64(runtime.GOMAXPROCS(0))
		searches := float64(3 * ecfg.CampaignSearchMembers)
		finishLedger(L, map[string]float64{
			"campaign": 2*genS + searches*L["campaign.search_ms"]/1e3/procs,
			"chip":     float64(res.Members) * L["chip.build_ms"] / 1e3 / procs,
		}, s.PassS)
	}
	return s, nil
}
