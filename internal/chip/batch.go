package chip

import (
	"fmt"
	"sync/atomic"

	"emtrust/internal/aes"
	"emtrust/internal/analog"
	"emtrust/internal/emfield"
	"emtrust/internal/logic"
	"emtrust/internal/power"
	"emtrust/internal/trojan"
)

// Batched capture: up to logic.MaxLanes capture lanes — (pre-state,
// plaintext) pairs — run through one bit-parallel wide simulation
// instead of N scalar ones. The pipeline deduplicates identical lanes
// within a call and simulates the rest, one uint64 word per net. Every
// toggle word is booked once into a lane-major power.Ledger, which
// flushes each lane-cycle's currents straight into the lane's flux, so
// every lane's waveform is bit-identical to an independent scalar
// capture (pinned by the batch and determinism tests at every
// worker/lane count).
//
// Batch captures bypass the process-wide capture cache: their callers
// (random-plaintext sets, the CPA) send unique stimuli a cache would only
// churn through. They are also side-effect-free on the chip: the wide
// engine and the ledger are separate simulation state, so the chip's own
// simulator, recorder and analog Trojan stay where they were. Returned
// captures carry no per-tile current waveforms (Tiles returns nil): no
// lane ever holds a whole-window waveform. Consumers that need them use
// the scalar CapturePT/CaptureIdle. (A reference-engine chip has no
// wide engine; its batches simulate scalar windows through the chip's
// recorder, bypassing memo and cache, and rewind the chip afterwards.)

// batchLanes caps how many lanes one wide simulation carries; 0 (the
// default) means logic.MaxLanes.
var batchLanes atomic.Int32

// BatchLanes returns the effective lane cap for batched captures,
// between 1 and logic.MaxLanes.
func BatchLanes() int {
	v := int(batchLanes.Load())
	if v <= 0 || v > logic.MaxLanes {
		return logic.MaxLanes
	}
	return v
}

// SetBatchLanes overrides the lane cap (0 restores the MaxLanes
// default) and returns a function restoring the previous cap. Tests use
// it to pin batched output bit-identical across lane counts.
func SetBatchLanes(n int) (restore func()) {
	old := batchLanes.Swap(int32(n))
	return func() { batchLanes.Store(old) }
}

// nextCaptureSeq hands out process-unique capture identities; see
// Capture.Seq.
var captureSeq atomic.Uint64

func nextCaptureSeq() uint64 { return captureSeq.Add(1) }

// batchGroup is one deduplicated (pre-state, stimulus) capture lane, the
// input indices that collapse onto it, and its result.
type batchGroup struct {
	snap *Snapshot
	stim stimulus
	idx  []int
	cap  *Capture
}

// CaptureBatchFrom fans encryption lanes through the wide engine: lane i
// restores snaps[i] (taken on this chip or one sharing its design) and
// encrypts pts[i] under key. A nil snaps broadcasts the chip's current
// state to every lane. It returns one *Capture per lane without
// advancing the chip's state; identical lanes share one *Capture.
func (c *Chip) CaptureBatchFrom(snaps []*Snapshot, pts [][]byte, key []byte, cycles int) ([]*Capture, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	if len(key) != 16 {
		return nil, fmt.Errorf("chip: need 16-byte key")
	}
	stims := make([]stimulus, len(pts))
	for i, pt := range pts {
		s, err := encryption(pt, key)
		if err != nil {
			return nil, fmt.Errorf("chip: lane %d: need 16-byte pt", i)
		}
		stims[i] = s
	}
	snaps, err := c.batchSnaps(snaps, len(pts))
	if err != nil {
		return nil, err
	}
	return c.captureBatch(snaps, stims, cycles)
}

// batchSnaps normalizes the snapshot list: nil broadcasts the current
// state, otherwise one snapshot per lane.
func (c *Chip) batchSnaps(snaps []*Snapshot, n int) ([]*Snapshot, error) {
	if snaps == nil {
		cur := c.Snapshot()
		snaps = make([]*Snapshot, n)
		for i := range snaps {
			snaps[i] = cur
		}
		return snaps, nil
	}
	if len(snaps) != n {
		return nil, fmt.Errorf("chip: %d snapshots for %d lanes", len(snaps), n)
	}
	for i, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("chip: nil snapshot for lane %d", i)
		}
	}
	return snaps, nil
}

// sameState reports whether two snapshots hold the same dynamic state.
func (s *Snapshot) sameState(o *Snapshot) bool {
	return s == o || (s.a2Enabled == o.a2Enabled && s.a2 == o.a2 && s.sim.ValuesEqual(o.sim))
}

// captureBatch deduplicates the lanes, simulates the groups in wide
// chunks (or scalar captures when the chip runs the reference engine),
// and maps group results back onto the input order. Every lane's
// stimulus is an encryption under the same key.
func (c *Chip) captureBatch(snaps []*Snapshot, stims []stimulus, cycles int) ([]*Capture, error) {
	if err := stims[0].checkWindow(cycles); err != nil {
		return nil, err
	}
	var groups []*batchGroup
	for i, s := range snaps {
		var g *batchGroup
		for _, have := range groups {
			if have.stim == stims[i] && have.snap.sameState(s) {
				g = have
				break
			}
		}
		if g == nil {
			g = &batchGroup{snap: s, stim: stims[i]}
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}
	if c.sim.Compiled() {
		lanes := BatchLanes()
		for lo := 0; lo < len(groups); lo += lanes {
			if err := c.runWide(groups[lo:min(lo+lanes, len(groups))], cycles); err != nil {
				return nil, err
			}
		}
	} else if err := c.runScalarBatch(groups, cycles); err != nil {
		return nil, err
	}
	out := make([]*Capture, len(snaps))
	for _, g := range groups {
		for _, i := range g.idx {
			out[i] = g.cap
		}
	}
	return out, nil
}

// runWide simulates up to MaxLanes groups as lanes of one wide capture
// and fills the groups' captures. The cycle sequence mirrors the scalar
// capture exactly — idle lead-in tick, per-lane plaintext with broadcast
// key and start pulse, load edge, then the remaining cycles — with the
// T2 crowbar and A2 charge-pump hooks booked per lane from the lane's
// net word each cycle. The wide engine and the ledger are built on
// first use and private to this chip handle.
func (c *Chip) runWide(groups []*batchGroup, cycles int) error {
	if c.wide == nil {
		w, err := c.sim.Wide()
		if err != nil {
			return err
		}
		c.wide, c.ledger = w, power.NewLedger(c.rec)
	}
	lanes := len(groups)
	w, led := c.wide, c.ledger
	sts := make([]*logic.State, lanes)
	a2s := make([]analog.A2, lanes)
	a2on := make([]bool, lanes)
	for l, g := range groups {
		sts[l] = g.snap.sim
		a2s[l] = g.snap.a2
		a2on[l] = g.snap.a2Enabled && c.a2 != nil
	}
	if err := w.LoadStates(sts); err != nil {
		return err
	}
	// The ledger streams each lane-cycle's currents into the lane's two
	// flux waveforms, which become its emfs once the window closes.
	n := cycles * c.cfg.Power.SamplesPerCycle
	sensor, probe := make([][]float64, lanes), make([][]float64, lanes)
	for l := range sensor {
		sensor[l], probe[l] = make([]float64, n), make([]float64, n)
	}
	err := led.Begin(lanes, cycles, func(l, start int, cur [][]float64) {
		c.sensor.AddFlux(sensor[l][start:start+len(cur[0])], cur)
		c.probe.AddFlux(probe[l][start:start+len(cur[0])], cur)
	})
	if err != nil {
		return err
	}
	w.OnWideToggle = led.OnWideToggle
	defer func() { w.OnWideToggle = nil }()

	t2, hasT2 := c.trojans[trojan.T2LeakageCurrent]
	tick := func() error {
		w.Tick()
		if hasT2 {
			on := w.NetWord(t2.Active) &^ w.NetWord(t2.LeakWire)
			led.AddStaticCurrent(on, c.t2Tile, c.cfg.Power.CrowbarCurrent*float64(t2.CrowbarPairs))
		}
		if c.a2 != nil {
			vw := w.NetWord(c.a2Victim)
			for l := range a2s {
				if !a2on[l] {
					continue
				}
				res := a2s[l].Step(uint8(vw >> uint(l) & 1))
				if res.Pumped {
					led.AddFastToggles(l, c.a2Tile, 1, c.cfg.A2.PumpCharge)
				}
				led.AddFastToggles(l, c.a2Tile, res.FastToggles, c.cfg.A2.TriggerCharge)
			}
		}
		return led.EndCycle()
	}

	if err := tick(); err != nil { // cycle 0: idle lead-in
		return err
	}
	laneBits := make([][]uint8, lanes)
	for l, g := range groups {
		laneBits[l] = aes.BytesToBits(g.stim.pt[:])
	}
	if err := w.SetPortLanesBits(aes.PortPT, laneBits); err != nil {
		return err
	}
	if err := w.SetPortBitsAll(aes.PortKey, aes.BytesToBits(groups[0].stim.key[:])); err != nil {
		return err
	}
	if err := w.SetPortUintAll(aes.PortStart, 1); err != nil {
		return err
	}
	w.Settle()
	if err := tick(); err != nil { // load edge
		return err
	}
	if err := w.SetPortUintAll(aes.PortStart, 0); err != nil {
		return err
	}
	w.Settle()
	for i := 2; i < cycles; i++ {
		if err := tick(); err != nil {
			return err
		}
	}

	dt := c.rec.Dt()
	for l, g := range groups {
		g.cap = &Capture{
			Sensor: emfield.FluxToEMF(sensor[l], dt),
			Probe:  emfield.FluxToEMF(probe[l], dt),
			Dt:     dt,
			seq:    nextCaptureSeq(),
		}
	}
	return nil
}

// runScalarBatch is the reference-engine fallback (and the batch
// layer's semantic ground truth, which the batch tests pin the wide
// path against): each group restores its snapshot and runs a plain
// scalar capture, after which the chip is rewound to where it was.
func (c *Chip) runScalarBatch(groups []*batchGroup, cycles int) error {
	save := c.Snapshot()
	defer c.Restore(save)
	for _, g := range groups {
		c.Restore(g.snap)
		cap, err := c.simulate(g.stim, cycles)
		if err != nil {
			return err
		}
		g.cap = &Capture{Sensor: cap.Sensor, Probe: cap.Probe, Dt: cap.Dt, seq: cap.seq}
	}
	return nil
}

// CaptureChain runs count consecutive CapturePT calls of one plaintext —
// the serial state-evolution chain of a fixed-plaintext capture set,
// where capture j starts from capture j-1's post state — and returns
// them in order, advancing the chip by exactly count captures. See
// chain for the replay rules. A count <= 0 is clamped to a nil chain.
func (c *Chip) CaptureChain(pt, key []byte, cycles, count int) ([]*Capture, error) {
	s, err := encryption(pt, key)
	if err != nil {
		return nil, err
	}
	return c.chain(s, cycles, count)
}

// CaptureIdleChain is CaptureChain for idle (no-encryption) captures. A
// dormant chip's idle fixed point collapses the whole chain to at most
// one simulation — on a fresh chip of an already-seen configuration, to
// none at all, since the chip build cache makes identical chips start
// from the identical state the cache has already recorded. An armed A2
// whose charge pump is still integrating genuinely changes state every
// capture, so each step along that orbit simulates once process-wide
// and replays forever after. A count <= 0 is clamped to a nil chain.
func (c *Chip) CaptureIdleChain(cycles, count int) ([]*Capture, error) {
	return c.chain(idleStimulus, cycles, count)
}

// chain runs count consecutive captures of s, each from the state the
// previous one left: a loop over the scalar capture path, carrying the
// post-state hash from step to step. A dormant chip's fixed point
// collapses the whole chain to at most one simulation, and an active
// Trojan's periodic orbit replays after its first traversal. Waveforms,
// the simulator state trajectory, the cycle counter and the analog
// Trojan state are bit-identical to count serial scalar captures.
func (c *Chip) chain(s stimulus, cycles, count int) ([]*Capture, error) {
	if count <= 0 {
		return nil, nil
	}
	caps := make([]*Capture, count)
	var hash uint64
	for j := range caps {
		cap, h, err := c.capture(s, cycles, hash)
		if err != nil {
			return nil, err
		}
		caps[j], hash = cap, h
	}
	return caps, nil
}
