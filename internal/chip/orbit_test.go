package chip

import (
	"bytes"
	"sync"
	"testing"

	"emtrust/internal/analog"
	"emtrust/internal/logic"
	"emtrust/internal/trojan"
)

// orbitStep is one window of an orbit walk, deep-copied so later
// captures cannot alias it.
type orbitStep struct {
	sensor, probe []float64
	post          *logic.State
	cycle         int
	ct            []byte
	a2            analog.A2
	seq           uint64
}

// walkOrbit restores c to start, drops its memos and runs n windows of
// step, recording each window's waveforms, the state it leaves, the
// ciphertext register and the A2 state. With fresh set, the capture
// cache and the memos are dropped before every window, so each one is
// simulated: the reference the replaying walks are held to.
func walkOrbit(t *testing.T, c *Chip, start *Snapshot, n int, fresh bool, step func(*Chip) (*Capture, error)) []orbitStep {
	t.Helper()
	c.Restore(start)
	c.memo = [2]*Capture{}
	out := make([]orbitStep, n)
	for j := range out {
		if fresh {
			ResetCaptureCache()
			c.memo = [2]*Capture{}
		}
		cap, err := step(c)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := c.Ciphertext()
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := c.a2State()
		out[j] = orbitStep{
			sensor: append([]float64(nil), cap.Sensor...),
			probe:  append([]float64(nil), cap.Probe...),
			post:   c.sim.State(), cycle: c.sim.Cycle(),
			ct: ct, a2: a2, seq: cap.Seq(),
		}
	}
	return out
}

// sameWalk fails unless two walks agree bit for bit.
func sameWalk(t *testing.T, name string, got, want []orbitStep) {
	t.Helper()
	for j := range want {
		g, w := got[j], want[j]
		sameWave(t, name, &Capture{Sensor: g.sensor, Probe: g.probe}, &Capture{Sensor: w.sensor, Probe: w.probe})
		switch {
		case !g.post.ValuesEqual(w.post):
			t.Fatalf("%s: window %d leaves a different state", name, j)
		case g.cycle != w.cycle:
			t.Fatalf("%s: window %d ends at cycle %d, want %d", name, j, g.cycle, w.cycle)
		case !bytes.Equal(g.ct, w.ct):
			t.Fatalf("%s: window %d ciphertext %x, want %x", name, j, g.ct, w.ct)
		case g.a2 != w.a2:
			t.Fatalf("%s: window %d leaves the A2 at %+v, want %+v", name, j, g.a2, w.a2)
		}
	}
}

// orbitShape finds the transient and period of a walk from its capture
// identities: the first window whose Seq repeats closes the orbit.
func orbitShape(steps []orbitStep) (transient, period int) {
	first := map[uint64]int{}
	for j, s := range steps {
		if i, ok := first[s.seq]; ok {
			return i, j - i
		}
		first[s.seq] = j
	}
	return len(steps), 0
}

// TestOrbitReplay walks the periodic Trojans of the monitor workload —
// T4's rotating power-hog bank, T3's CDMA code register and the firing
// A2 charge pump — and pins the replay contract on each: after one
// traversal every window replays from the capture cache (or, on a fixed
// point, the memo) with the Seq of the simulation it replays, and every
// replayed window matches a simulation of it made after
// ResetCaptureCache, bit for bit: waveforms, post-states, cycle
// counter, Ciphertext and A2 state.
func TestOrbitReplay(t *testing.T) {
	pt := make([]byte, 16)
	encrypt := func(c *Chip) (*Capture, error) { return c.CapturePT(pt, testKey, 32) }
	idle := func(c *Chip) (*Capture, error) {
		caps, err := c.CaptureIdleChain(512, 1)
		if err != nil {
			return nil, err
		}
		return caps[0], nil
	}
	cases := []struct {
		name   string
		arm    func(c *Chip) error
		step   func(*Chip) (*Capture, error)
		period int
	}{
		{"T4", func(c *Chip) error { return c.SetTrojan(trojan.T4PowerHog, true) }, encrypt, 3},
		{"T3", func(c *Chip) error { return c.SetTrojan(trojan.T3CDMALeaker, true) }, encrypt, 128},
		{"A2", func(c *Chip) error { c.EnableA2(true); return nil }, idle, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.arm(c); err != nil {
				t.Fatal(err)
			}
			start := c.Snapshot()

			// Cold: the first traversal simulates, the rest replays.
			ResetCaptureCache()
			before := Stats()
			n := 12 + tc.period
			cold := walkOrbit(t, c, start, n, false, tc.step)
			after := Stats()
			tr, p := orbitShape(cold)
			if p != tc.period {
				t.Fatalf("orbit period %d windows (transient %d), want %d", p, tr, tc.period)
			}
			if tc.name == "A2" && !c.A2().Firing() {
				t.Fatal("A2 orbit closed before the charge pump fired")
			}
			misses, hits := after.CaptureMisses-before.CaptureMisses, after.CaptureHits-before.CaptureHits
			wantHits := uint64(n - tr - p)
			if p == 1 {
				wantHits = 0 // a fixed point replays from the memo, no lookup
			}
			if misses != uint64(tr+p) || hits != wantHits {
				t.Fatalf("cold walk: %d misses, %d hits; want %d, %d", misses, hits, tr+p, wantHits)
			}
			for j := tr + p; j < n; j++ {
				if cold[j].seq != cold[j-p].seq {
					t.Fatalf("window %d replays window %d under a new Seq", j, j-p)
				}
			}

			// Warm: a fresh chip of the same build walks the same start
			// without simulating a single window.
			w, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			before = Stats()
			warm := walkOrbit(t, w, start, n, false, tc.step)
			after = Stats()
			wantHits = uint64(n)
			if p == 1 {
				wantHits = uint64(tr + 1)
			}
			if misses, hits := after.CaptureMisses-before.CaptureMisses, after.CaptureHits-before.CaptureHits; misses != 0 || hits != wantHits {
				t.Fatalf("warm walk: %d misses, %d hits; want 0, %d", misses, hits, wantHits)
			}
			for j := range warm {
				if warm[j].seq != cold[j].seq {
					t.Fatalf("warm window %d has Seq %d, the cold walk's %d", j, warm[j].seq, cold[j].seq)
				}
			}

			// The cold walk simulated its first tr+p windows (its miss
			// count says so); simulate the replayed rest afresh from the
			// state the cold walk reached before them.
			k := tr + p
			from := &Snapshot{sim: cold[k-1].post, a2: cold[k-1].a2, a2Enabled: start.a2Enabled}
			ref := walkOrbit(t, c, from, n-k, true, tc.step)
			sameWalk(t, "cold walk vs simulation", cold[k:], ref)
			sameWalk(t, "warm walk vs cold walk", warm, cold)
		})
	}
}

// TestReplayIgnoresSeed: the noise Seed feeds no capture, so two chips
// differing only in Seed capture bit-identically, and the second chip's
// windows are all cache hits.
func TestReplayIgnoresSeed(t *testing.T) {
	pt := make([]byte, 16)
	walk := func(seed int64) []orbitStep {
		cfg := DefaultConfig()
		cfg.Seed = seed
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetTrojan(trojan.T4PowerHog, true); err != nil {
			t.Fatal(err)
		}
		return walkOrbit(t, c, c.Snapshot(), 3, false, func(c *Chip) (*Capture, error) {
			return c.CapturePT(pt, testKey, batchCycles)
		})
	}
	ResetCaptureCache()
	a := walk(1)
	before := Stats()
	b := walk(7)
	after := Stats()
	sameWalk(t, "seed 7 vs seed 1", b, a)
	if misses, hits := after.CaptureMisses-before.CaptureMisses, after.CaptureHits-before.CaptureHits; misses != 0 || hits != 3 {
		t.Fatalf("second seed: %d misses, %d hits; want 0, 3", misses, hits)
	}
}

// copyTiles deep-copies a tile matrix.
func copyTiles(tiles [][]float64) [][]float64 {
	out := make([][]float64, len(tiles))
	for i, w := range tiles {
		out[i] = append([]float64(nil), w...)
	}
	return out
}

// sameTiles fails unless two tile matrices agree bit for bit.
func sameTiles(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%s: %d tiles, want %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: tile %d has %d samples, want %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: tile %d sample %d: %v != %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestReplayTiles: per-tile currents on demand. A fresh capture's Tiles
// alias the recorder while it holds the window; once the recorder moves
// on, and on a replayed capture, Tiles re-simulates the window and must
// return the simulation's tiles bit for bit. Chip-owned captures keep
// the re-simulation; cache-resident ones keep nothing.
func TestReplayTiles(t *testing.T) {
	ResetCaptureCache()
	c := activeClone(t, trojan.T4PowerHog)
	pt := make([]byte, 16)
	start := c.Snapshot()
	sim, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	live := sim.Tiles()
	if &live[0][0] != &c.rec.Currents()[0][0] {
		t.Fatal("a fresh capture's Tiles are not the recorder's buffers")
	}
	want := copyTiles(live)

	c.Restore(start)
	replay, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.resident() {
		t.Fatal("re-running the window did not replay the resident capture")
	}
	sameTiles(t, "replayed capture", replay.Tiles(), want)
	if replay.tiles != nil {
		t.Fatal("a cache-resident capture kept its re-simulated tiles")
	}
	// The replay did not simulate, so the recorder still holds the
	// window; the next simulated window overwrites it.
	if &sim.Tiles()[0][0] != &c.rec.Currents()[0][0] {
		t.Fatal("a replay invalidated the recorder-backed tiles")
	}
	if _, err := c.CapturePT(pt, testKey, batchCycles+1); err != nil {
		t.Fatal(err)
	}
	kept := sim.Tiles()
	sameTiles(t, "simulated capture after the recorder moved on", kept, want)
	if &kept[0][0] == &c.rec.Currents()[0][0] || &sim.Tiles()[0][0] != &kept[0][0] {
		t.Fatal("a chip-owned capture did not keep its re-simulated tiles")
	}

	// Batch captures have no scalar window to reproduce.
	batch, err := c.CaptureBatchFrom(nil, [][]byte{pt}, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Tiles() != nil {
		t.Fatal("a batch capture returned tiles")
	}
}

// TestReplayTilesMemo: a fixed-point memo replay reached through the
// capture cache (a fresh chip of a seen build) hands out one chip-owned
// capture, whose tiles match a fresh simulation.
func TestReplayTilesMemo(t *testing.T) {
	pt := make([]byte, 16)
	g := golden(t)
	fresh := func() *Chip {
		c, err := New(g.Config())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.CapturePT(pt, testKey, batchCycles); err != nil { // leave reset
			t.Fatal(err)
		}
		return c
	}
	ResetCaptureCache()
	c := fresh()
	sim, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	want := copyTiles(sim.Tiles())

	r := fresh()
	m1, err := r.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 || m1.resident() || m1.Seq() != sim.Seq() {
		t.Fatal("fixed-point replays must share one chip-owned capture with the simulation's Seq")
	}
	sameTiles(t, "memo replay", m1.Tiles(), want)
}

// TestReplayRace: two chips of one build walk a shared orbit on two
// goroutines, reading every window's tiles, while the capture cache
// serves each chip the other's windows. Run under -race this is the
// locking proof for the build-resident cache and the tiles accessor;
// both walks must see identical waveforms and tiles.
func TestReplayRace(t *testing.T) {
	const windows = 7
	pt := make([]byte, 16)
	ResetCaptureCache()
	sums := make([][2]float64, 2)
	var wg sync.WaitGroup
	for g := range sums {
		c, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetTrojan(trojan.T4PowerHog, true); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, c *Chip) {
			defer wg.Done()
			for j := 0; j < windows; j++ {
				cap, err := c.CapturePT(pt, testKey, batchCycles)
				if err != nil {
					t.Error(err)
					return
				}
				for _, v := range cap.Sensor {
					sums[g][0] += v
				}
				for _, w := range cap.Tiles() {
					for _, v := range w {
						sums[g][1] += v
					}
				}
			}
		}(g, c)
	}
	wg.Wait()
	if sums[0] != sums[1] {
		t.Fatalf("the two walks disagree: %v vs %v", sums[0], sums[1])
	}
}
