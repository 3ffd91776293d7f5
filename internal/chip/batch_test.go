package chip

import (
	"testing"

	"emtrust/internal/trojan"
)

// resetCaptureCache empties the process-wide capture cache so a test
// exercises the simulation paths rather than replays.
func resetCaptureCache() { ResetCaptureCache() }

const batchCycles = 16

// activeClone returns an independent clone of the infected chip with
// the given Trojan armed, so its state genuinely evolves from capture
// to capture (no fixed point, no trivial cache hits).
func activeClone(t *testing.T, kind trojan.Kind) *Chip {
	t.Helper()
	c, err := infected(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetTrojan(kind, true); err != nil {
		t.Fatal(err)
	}
	return c
}

func sameWave(t *testing.T, step string, a, b *Capture) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: nil capture", step)
	}
	if len(a.Sensor) != len(b.Sensor) || len(a.Probe) != len(b.Probe) || a.Dt != b.Dt {
		t.Fatalf("%s: capture shapes differ", step)
	}
	for i := range a.Sensor {
		if a.Sensor[i] != b.Sensor[i] {
			t.Fatalf("%s: sensor sample %d: %v != %v", step, i, a.Sensor[i], b.Sensor[i])
		}
		if a.Probe[i] != b.Probe[i] {
			t.Fatalf("%s: probe sample %d: %v != %v", step, i, a.Probe[i], b.Probe[i])
		}
	}
}

// orbitSnapshots advances the chip through count captures of a fixed
// plaintext and returns the snapshot before each, giving genuinely
// distinct per-lane starting states on an active-Trojan chip.
func orbitSnapshots(t *testing.T, c *Chip, pt []byte, count int) []*Snapshot {
	t.Helper()
	snaps := make([]*Snapshot, count)
	for i := range snaps {
		snaps[i] = c.Snapshot()
		if _, err := c.CapturePT(pt, testKey, batchCycles); err != nil {
			t.Fatal(err)
		}
	}
	return snaps
}

// TestCaptureBatchMatchesScalar pins the wide engine's end-to-end
// contract: every lane of a batched capture — divergent plaintexts AND
// divergent starting states, with a digital Trojan and the analog A2
// running — must be bit-identical to an independent scalar capture from
// the same snapshot, and the batch must not move the chip.
func TestCaptureBatchMatchesScalar(t *testing.T) {
	resetCaptureCache()
	c := activeClone(t, trojan.T1AMLeaker)
	c.EnableA2(true)
	basePT := make([]byte, 16)
	snaps := orbitSnapshots(t, c, basePT, 5)

	const lanes = 9
	pts := make([][]byte, lanes)
	laneSnaps := make([]*Snapshot, lanes)
	for i := range pts {
		pt := make([]byte, 16)
		pt[0] = byte(37 * i)
		pt[15] = byte(i)
		pts[i] = pt
		laneSnaps[i] = snaps[i%len(snaps)]
	}

	before := c.Snapshot()
	caps, err := c.CaptureBatchFrom(laneSnaps, pts, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if !c.sim.State().ValuesEqual(before.sim) || *c.a2 != before.a2 {
		t.Fatal("batched capture moved the chip's state")
	}

	scalar, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		scalar.Restore(laneSnaps[i])
		want, err := scalar.CapturePT(pts[i], testKey, batchCycles)
		if err != nil {
			t.Fatal(err)
		}
		sameWave(t, "lane", caps[i], want)
	}
}

// TestCaptureBatchLedgerT2A2 pins the wide path's charge ledger on a
// 48-lane batch: lanes start from a dormant snapshot or from snapshots
// along an A2 charging orbit (dormant pump through firing) with the T2
// crowbar active, so T2 static current and sub-cycle A2 pulses run on
// some lanes and not on others. Every lane must match a scalar capture
// bit for bit, and the batch must leave the capture-cache counters, the
// chip's state and its last scalar capture's Tiles alone.
func TestCaptureBatchLedgerT2A2(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	orbit := []*Snapshot{c.Snapshot()} // T2 and A2 both off
	if err := c.SetTrojan(trojan.T2LeakageCurrent, true); err != nil {
		t.Fatal(err)
	}
	if c.sim.Net(c.trojans[trojan.T2LeakageCurrent].Active) != 1 {
		t.Fatal("T2 did not activate")
	}
	c.EnableA2(true)
	firing := 0
	for i := 0; i < 6; i++ {
		orbit = append(orbit, c.Snapshot())
		if c.A2().Firing() {
			firing++
		}
		// 101 cycles, so the T2 shift pacing has a different phase at
		// every snapshot.
		if _, err := c.CaptureIdle(101); err != nil {
			t.Fatal(err)
		}
	}
	if firing == 0 || firing == len(orbit)-1 {
		t.Fatalf("%d of %d orbit snapshots have A2 firing; want a mix", firing, len(orbit)-1)
	}

	// An all-ones key loads a 1 into the T2 head bit on the load edge,
	// so the crowbar current switches off mid-window instead of
	// conducting through it.
	key := make([]byte, 16)
	for i := range key {
		key[i] = 0xff
	}
	const lanes = 48
	pts := make([][]byte, lanes)
	snaps := make([]*Snapshot, lanes)
	for i := range pts {
		pt := make([]byte, 16)
		pt[i%16] = byte(29*i + 1)
		pt[(i+7)%16] ^= byte(i)
		pts[i] = pt
		snaps[i] = orbit[i%len(orbit)]
	}
	// A scalar capture's Tiles alias the chip's recorder; a batch capture
	// must leave them, the chip's state and the cache counters alone.
	last, err := c.CapturePT(pts[0], key, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	lastTiles := last.Tiles()
	tiles := make([][]float64, len(lastTiles))
	for i, w := range lastTiles {
		tiles[i] = append([]float64(nil), w...)
	}
	state, cycle := c.Snapshot(), c.sim.Cycle()
	before := Stats()
	caps, err := c.CaptureBatchFrom(snaps, pts, key, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if after := Stats(); after.CaptureHits != before.CaptureHits || after.CaptureMisses != before.CaptureMisses {
		t.Fatalf("batch capture moved the capture-cache counters: %+v -> %+v", before, after)
	}
	if !c.Snapshot().sameState(state) || c.sim.Cycle() != cycle {
		t.Fatal("batch capture moved the chip")
	}
	for i, w := range tiles {
		for j, v := range w {
			if last.Tiles()[i][j] != v {
				t.Fatalf("batch capture overwrote the last scalar capture's Tiles (tile %d sample %d)", i, j)
			}
		}
	}
	scalar, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		scalar.Restore(snaps[i])
		want, err := scalar.CapturePT(pts[i], key, batchCycles)
		if err != nil {
			t.Fatal(err)
		}
		sameWave(t, "ledger lane", caps[i], want)
	}
}

// TestCaptureBatchLaneCountInvariance pins the determinism contract:
// the same batch split into 1-, 3- or 64-lane wide runs (partial final
// chunks included) produces byte-identical captures.
func TestCaptureBatchLaneCountInvariance(t *testing.T) {
	c := activeClone(t, trojan.T4PowerHog)
	snaps := orbitSnapshots(t, c, make([]byte, 16), 4)
	const n = 7
	pts := make([][]byte, n)
	laneSnaps := make([]*Snapshot, n)
	for i := range pts {
		pt := make([]byte, 16)
		pt[3] = byte(11 * i)
		pts[i] = pt
		laneSnaps[i] = snaps[i%len(snaps)]
	}
	var got [][]*Capture
	for _, lanes := range []int{64, 3, 1} {
		resetCaptureCache()
		restore := SetBatchLanes(lanes)
		caps, err := c.CaptureBatchFrom(laneSnaps, pts, testKey, batchCycles)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, caps)
	}
	for i := 0; i < n; i++ {
		sameWave(t, "lanes=3", got[0][i], got[1][i])
		sameWave(t, "lanes=1", got[0][i], got[2][i])
	}
}

// TestCaptureBatchReferenceFallback pins the scalar fallback: a
// reference-engine chip batches through per-group scalar captures, and
// its waveforms match the compiled chip's wide-engine batch.
func TestCaptureBatchReferenceFallback(t *testing.T) {
	resetCaptureCache()
	cfg := DefaultConfig()
	cfg.ReferenceSim = true
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetTrojan(trojan.T2LeakageCurrent, true); err != nil {
		t.Fatal(err)
	}
	// The compiled chip must start from the same pre-state as the fresh
	// reference chip, so build it fresh too: the shared infected chip's
	// latch state depends on which tests captured on it earlier, and a
	// clone of it would make this comparison shuffle-order dependent.
	cmp, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := cmp.SetTrojan(trojan.T2LeakageCurrent, true); err != nil {
		t.Fatal(err)
	}

	pts := make([][]byte, 3)
	for i := range pts {
		pt := make([]byte, 16)
		pt[7] = byte(i + 1)
		pts[i] = pt
	}
	refCaps, err := ref.CaptureBatchFrom(nil, pts, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	cmpCaps, err := cmp.CaptureBatchFrom(nil, pts, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		sameWave(t, "engine", refCaps[i], cmpCaps[i])
	}
}

// TestCaptureBatchDedup: lanes with identical (state, plaintext) share
// one simulation and one result object.
func TestCaptureBatchDedup(t *testing.T) {
	resetCaptureCache()
	c := activeClone(t, trojan.T1AMLeaker)
	pt := make([]byte, 16)
	other := make([]byte, 16)
	other[0] = 0xff
	caps, err := c.CaptureBatchFrom(nil, [][]byte{pt, other, pt}, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if caps[0] != caps[2] {
		t.Fatal("identical lanes returned distinct captures")
	}
	if caps[0] == caps[1] {
		t.Fatal("distinct plaintexts returned the same capture")
	}
	if caps[0].Seq() == caps[1].Seq() {
		t.Fatal("distinct captures share a Seq")
	}
}

// TestCaptureChainMatchesSerial pins CaptureChain's contract on an
// evolving chip: waveforms and the state trajectory are bit-identical
// to serial CapturePT calls, and a replayed chain (cache hits) returns
// the same results and final state.
func TestCaptureChainMatchesSerial(t *testing.T) {
	resetCaptureCache()
	c := activeClone(t, trojan.T3CDMALeaker)
	start := c.Snapshot()
	pt := make([]byte, 16)
	pt[5] = 0xa5
	const count = 5

	serial, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	serial.Restore(start)
	want := make([]*Capture, count)
	for j := range want {
		cap, err := serial.CapturePT(pt, testKey, batchCycles)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = &Capture{
			Sensor: append([]float64(nil), cap.Sensor...),
			Probe:  append([]float64(nil), cap.Probe...),
			Dt:     cap.Dt,
		}
	}

	chained, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	chained.Restore(start)
	got, err := chained.CaptureChain(pt, testKey, batchCycles, count)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		sameWave(t, "chain", got[j], want[j])
	}
	if !chained.sim.State().ValuesEqual(serial.sim.State()) {
		t.Fatal("chain and serial capture end in different states")
	}
	if chained.sim.Cycle() != serial.sim.Cycle() {
		t.Fatalf("chain cycle %d != serial cycle %d", chained.sim.Cycle(), serial.sim.Cycle())
	}

	replay, err := c.Clone()
	if err != nil {
		t.Fatal(err)
	}
	replay.Restore(start)
	again, err := replay.CaptureChain(pt, testKey, batchCycles, count)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for j := range again {
		sameWave(t, "replayed chain", again[j], want[j])
		if again[j] == got[j] {
			hits++
		}
	}
	if hits != count {
		t.Fatalf("replayed chain hit the cache on %d/%d steps", hits, count)
	}
	if !replay.sim.State().ValuesEqual(serial.sim.State()) {
		t.Fatal("replayed chain ends in a different state")
	}
}

// TestFixedPointMemo pins the dormant-chip fast path: from the second
// identical capture on, CapturePT and CaptureIdle return the same
// stable *Capture while still advancing the cycle counter, a different
// stimulus breaks the memo, and interleaved encryption and idle captures
// each keep replaying their own memo (one slot per stimulus kind).
func TestFixedPointMemo(t *testing.T) {
	c, err := golden(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 16)
	// Capture 1 moves the AES registers off the reset state; capture 2
	// is the first fixed-point traversal and creates the memo.
	if _, err := c.CapturePT(pt, testKey, batchCycles); err != nil {
		t.Fatal(err)
	}
	cycle := c.sim.Cycle()
	c2, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c3 {
		t.Fatal("repeated fixed-point captures returned distinct objects")
	}
	if got := c.sim.Cycle(); got != cycle+2*batchCycles {
		t.Fatalf("cycle = %d, want %d", got, cycle+2*batchCycles)
	}
	if len(c2.Tiles()) == 0 {
		t.Fatal("memoized capture lost its Tiles")
	}
	// A replay must match what a fresh simulation of the same capture
	// produces: clear the memo and re-simulate.
	c.memo[0] = nil // the encryption slot
	fresh, err := c.CapturePT(pt, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	sameWave(t, "memo vs fresh", fresh, c2)

	other := make([]byte, 16)
	other[0] = 1
	c4, err := c.CapturePT(other, testKey, batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if c4 == c3 {
		t.Fatal("different plaintext replayed the memo")
	}

	if _, err := c.CaptureIdle(batchCycles); err != nil {
		t.Fatal(err)
	}
	i2, err := c.CaptureIdle(batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	i3, err := c.CaptureIdle(batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	if i2 != i3 {
		t.Fatal("repeated idle captures returned distinct objects")
	}
	c.memo[1] = nil // the idle slot
	freshIdle, err := c.CaptureIdle(batchCycles)
	if err != nil {
		t.Fatal(err)
	}
	sameWave(t, "idle memo vs fresh", freshIdle, i2)

	// Interleaved dormant sequence. The encryption memo (fresh, taken at
	// pt's fixed point) survived the idle captures above; one more pt
	// capture returns the chip to that fixed point and one idle capture
	// memoizes idling there. From then on PT, idle, PT, idle must each
	// replay their own kind's capture.
	if _, err := c.CapturePT(pt, testKey, batchCycles); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CaptureIdle(batchCycles); err != nil {
		t.Fatal(err)
	}
	var got [4]*Capture
	for i := range got {
		if i%2 == 0 {
			got[i], err = c.CapturePT(pt, testKey, batchCycles)
		} else {
			got[i], err = c.CaptureIdle(batchCycles)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got[0] != fresh || got[2] != fresh {
		t.Fatal("an idle capture evicted the encryption memo")
	}
	if got[1] != got[3] || got[1] == got[0] {
		t.Fatal("interleaved idle captures did not replay the idle memo")
	}
}
