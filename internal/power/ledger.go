package power

import (
	"fmt"
	"math/bits"
)

// Ledger books the switching activity of up to 64 capture lanes — the
// lanes of one bit-parallel logic.WideState run — in one lane-major
// [tile][lane] charge row instead of one Recorder per lane. A toggle word
// costs one tile and charge lookup plus one add per changed lane.
//
// The ledger streams: EndCycle turns every lane's booked cycle into that
// lane's per-tile currents for the cycle's samples and hands them to a
// flush callback, so no lane ever holds a whole-window waveform. The
// currents are bit-identical to a Recorder fed the same events: each
// (tile, lane) slot receives its charges in the lane's toggle order, the
// cycle is flushed in Recorder.EndCycle's order (cycle charge plus clock
// tree, then static current, then sub-cycle pulses), and pulse tails
// that run past the cycle are carried into the next one, where they sit
// under that cycle's own deposits exactly as in a whole-window buffer.
type Ledger struct {
	rec *Recorder // read only: charge, tiles, clock tree, pulse, config
	// cellCharge and cellTile alias rec's per-cell tables.
	cellCharge []float64
	cellTile   []int

	lanes  int
	mask   uint64 // low `lanes` bits set
	cycles int
	cycle  int
	flush  func(lane, start int, currents [][]float64)

	// row is the cycle's [tile][lane] switching charge; static and fast
	// are the cycle's injections in booking order.
	row    []float64
	static []staticEvent
	fast   []fastEvent

	block [][]float64 // [tile][sample] currents of one lane-cycle
	amps  []float64   // per-tile static current of one lane-cycle
	carry [][]spill   // per lane: current spilled past the flushed cycle
}

// staticEvent is one AddStaticCurrent booking for the lanes in mask.
type staticEvent struct {
	mask uint64
	tile int
	amps float64
}

// fastEvent is one AddFastToggles booking for one lane.
type fastEvent struct {
	lane int
	ev   subEvent
}

// spill is current a lane-cycle deposited past its own samples: w[k] is
// sample k of the following cycle on tile.
type spill struct {
	tile int
	w    []float64
}

// NewLedger builds a ledger that books and flushes with rec's charge
// table, clock tree, pulse shape and sampling. rec itself is never
// written, so its last capture's waveforms stay valid.
func NewLedger(rec *Recorder) *Ledger {
	l := &Ledger{
		rec: rec, cellCharge: rec.charge, cellTile: rec.grid.CellTile,
		block: make([][]float64, rec.grid.NumTiles()),
		amps:  make([]float64, rec.grid.NumTiles()),
	}
	for t := range l.block {
		l.block[t] = make([]float64, rec.cfg.SamplesPerCycle)
	}
	return l
}

// Begin starts booking a capture of numCycles cycles on 1..64 lanes.
// Each EndCycle calls flush once per lane, in lane order, with the
// lane's per-tile currents for samples [start, start+SamplesPerCycle);
// the slices are overwritten by the next call.
func (l *Ledger) Begin(lanes, numCycles int, flush func(lane, start int, currents [][]float64)) error {
	if lanes < 1 || lanes > 64 {
		return fmt.Errorf("power: ledger of %d lanes (want 1..64)", lanes)
	}
	l.lanes, l.cycles, l.cycle, l.flush = lanes, numCycles, 0, flush
	l.mask = ^uint64(0) >> uint(64-lanes)
	need := len(l.block) * lanes
	if cap(l.row) >= need {
		l.row = l.row[:need]
		clear(l.row)
	} else {
		l.row = make([]float64, need)
	}
	l.static = l.static[:0]
	l.fast = l.fast[:0]
	l.carry = append(l.carry[:0], make([][]spill, lanes)...)
	return nil
}

// OnWideToggle is the logic.WideState toggle callback: it books the
// cell's switching charge at its tile on every lane set in diff.
func (l *Ledger) OnWideToggle(cell int32, diff, _ uint64) {
	q := l.cellCharge[cell]
	row := l.row[l.cellTile[cell]*l.lanes:][:l.lanes]
	for diff &= l.mask; diff != 0; diff &= diff - 1 {
		row[bits.TrailingZeros64(diff)] += q
	}
}

// AddStaticCurrent injects a constant current (amps) at a tile for the
// current cycle on every lane set in mask (Recorder.AddStaticCurrent).
func (l *Ledger) AddStaticCurrent(mask uint64, tile int, amps float64) {
	if mask &= l.mask; mask != 0 {
		l.static = append(l.static, staticEvent{mask: mask, tile: tile, amps: amps})
	}
}

// AddFastToggles injects count evenly spaced charge pulses inside the
// current cycle on one lane (Recorder.AddFastToggles).
func (l *Ledger) AddFastToggles(lane, tile, count int, charge float64) {
	if count <= 0 || charge == 0 {
		return
	}
	l.fast = append(l.fast, fastEvent{lane: lane, ev: subEvent{tile: tile, charge: charge, count: count}})
}

// EndCycle flushes the booked cycle of every lane and advances to the
// next cycle. Calling it more than numCycles times is an error; toggles
// booked after the last EndCycle are dropped, as a Recorder drops them.
func (l *Ledger) EndCycle() error {
	if l.cycle >= l.cycles {
		return fmt.Errorf("power: EndCycle past the %d-cycle capture", l.cycles)
	}
	for lane := 0; lane < l.lanes; lane++ {
		l.flushLane(lane)
	}
	clear(l.row)
	l.static = l.static[:0]
	l.fast = l.fast[:0]
	l.cycle++
	return nil
}

// flushLane builds one lane's currents for the current cycle, in
// Recorder.EndCycle's order, and hands them to the flush callback.
func (l *Ledger) flushLane(lane int) {
	r := l.rec
	s := r.cfg.SamplesPerCycle
	for _, w := range l.block {
		clear(w)
	}
	// The previous cycle's spill is where this cycle's currents start;
	// what runs past this cycle too moves on to the next spill.
	var next []spill
	for _, sp := range l.carry[lane] {
		copy(l.block[sp.tile], sp.w)
		if len(sp.w) > s {
			copy(spillTo(&next, sp.tile, len(sp.w)-s), sp.w[s:])
		}
	}
	// Cycle charge plus clock tree. A pulse is at most one cycle long,
	// so a deposit at the cycle start never leaves the cycle.
	for tile, w := range l.block {
		if tq := l.row[tile*l.lanes+lane] + r.clockCharge[tile]; tq != 0 {
			for k, p := range r.pulse {
				w[k] += tq * p
			}
		}
	}
	bit := uint64(1) << uint(lane)
	for _, e := range l.static {
		if e.mask&bit != 0 {
			l.amps[e.tile] += e.amps
		}
	}
	for _, e := range l.static {
		if amps := l.amps[e.tile]; amps != 0 {
			for k := range l.block[e.tile] {
				l.block[e.tile][k] += amps
			}
			l.amps[e.tile] = 0
		}
	}
	// Sub-cycle pulses, placed as Recorder.EndCycle places them. A tail
	// past the cycle spills; whatever spills past the window's last
	// cycle is never flushed, as a Recorder clips it.
	for _, e := range l.fast {
		if e.lane != lane {
			continue
		}
		for j := 0; j < e.ev.count; j++ {
			start := e.ev.pulseStart(j, s)
			for k, p := range r.pulse {
				if i := start + k; i < s {
					l.block[e.ev.tile][i] += e.ev.charge * p
				} else {
					spillTo(&next, e.ev.tile, i-s+1)[i-s] += e.ev.charge * p
				}
			}
		}
	}
	l.carry[lane] = next
	l.flush(lane, l.cycle*s, l.block)
}

// spillTo returns tile's spill samples in *spills, grown to at least n.
func spillTo(spills *[]spill, tile, n int) []float64 {
	for i := range *spills {
		if sp := &(*spills)[i]; sp.tile == tile {
			if len(sp.w) < n {
				sp.w = append(sp.w, make([]float64, n-len(sp.w))...)
			}
			return sp.w
		}
	}
	*spills = append(*spills, spill{tile: tile, w: make([]float64, n)})
	return (*spills)[len(*spills)-1].w
}
