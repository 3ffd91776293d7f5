package power

import (
	"math"
	"testing"

	"emtrust/internal/layout"
	"emtrust/internal/logic"
	"emtrust/internal/netlist"
)

// smallPlan builds a small placed netlist: an inverter chain plus a few
// flip-flops.
func smallPlan(t testing.TB) (*layout.Floorplan, *netlist.Netlist) {
	t.Helper()
	b := netlist.NewBuilder("small")
	in := b.Input("in", 1)
	b.SetRegion("logic")
	x := in[0]
	for i := 0; i < 10; i++ {
		x = b.Not(x)
	}
	q := b.Reg(x)
	b.Reg(q)
	b.Output("o", []netlist.Net{q})
	n := b.Build()
	cfg := layout.DefaultConfig()
	cfg.TilesX, cfg.TilesY = 4, 4
	fp, err := layout.Place(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fp, n
}

func TestNewRecorderValidation(t *testing.T) {
	fp, _ := smallPlan(t)
	bad := DefaultConfig()
	bad.ClockHz = 0
	if _, err := NewRecorder(bad, fp); err == nil {
		t.Fatal("zero clock must error")
	}
	bad = DefaultConfig()
	bad.PulseFraction = 0
	if _, err := NewRecorder(bad, fp); err == nil {
		t.Fatal("zero pulse fraction must error")
	}
}

func TestPulseShapeUnitCharge(t *testing.T) {
	cfg := DefaultConfig()
	shape := pulseShape(cfg)
	sum := 0.0
	for _, v := range shape {
		sum += v * cfg.Dt()
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("pulse integral = %g, want 1", sum)
	}
	if len(shape) < 1 || len(shape) > cfg.SamplesPerCycle {
		t.Fatalf("pulse length %d", len(shape))
	}
}

func TestToggleChargeConservation(t *testing.T) {
	fp, n := smallPlan(t)
	cfg := DefaultConfig()
	cfg.ClockPinCharge = 0 // isolate toggle charge
	rec, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(4)
	// Toggle cell 0 twice in cycle 0 and cell 1 once in cycle 2.
	toggle(rec, 0, 0)
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	toggle(rec, 1)
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	want := 2*n.Cells[0].Type.SwitchingCharge() + n.Cells[1].Type.SwitchingCharge()
	if got := rec.TotalCharge(); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("total charge = %g, want %g", got, want)
	}
	if rec.Cycle() != 4 {
		t.Fatalf("cycle = %d", rec.Cycle())
	}
}

func TestClockTreeChargePerCycle(t *testing.T) {
	fp, _ := smallPlan(t)
	cfg := DefaultConfig()
	rec, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	ffs := 0
	for _, c := range rec.TileFFCount() {
		ffs += c
	}
	if ffs != 2 {
		t.Fatalf("flip-flop count = %d, want 2", ffs)
	}
	rec.Begin(3)
	for i := 0; i < 3; i++ {
		if err := rec.EndCycle(); err != nil {
			t.Fatal(err)
		}
	}
	want := 3 * 2 * cfg.ClockPinCharge
	if got := rec.TotalCharge(); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("clock charge = %g, want %g", got, want)
	}
}

func TestStaticCurrent(t *testing.T) {
	fp, _ := smallPlan(t)
	cfg := DefaultConfig()
	cfg.ClockPinCharge = 0
	rec, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(2)
	rec.AddStaticCurrent(3, 1e-3)
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	// 1 mA over one cycle at 12 MHz = 83.3 pC.
	want := 1e-3 / cfg.ClockHz
	if got := rec.TotalCharge(); math.Abs(got-want) > want*1e-9 {
		t.Fatalf("static charge = %g, want %g", got, want)
	}
	// Entirely inside cycle 0.
	w := rec.Currents()[3]
	for i := cfg.SamplesPerCycle; i < len(w); i++ {
		if w[i] != 0 {
			t.Fatal("static current leaked into the next cycle")
		}
	}
}

func TestFastToggles(t *testing.T) {
	fp, _ := smallPlan(t)
	cfg := DefaultConfig()
	cfg.ClockPinCharge = 0
	rec, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(1)
	rec.AddFastToggles(0, 4, 1e-15)
	rec.AddFastToggles(0, 0, 1e-15) // no-op
	rec.AddFastToggles(0, 2, 0)     // no-op
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	want := 4e-15
	if got := rec.TotalCharge(); math.Abs(got-want) > want*0.3 {
		// Pulses near the cycle end may clip; most charge must land.
		t.Fatalf("fast-toggle charge = %g, want ~%g", got, want)
	}
	// The four pulses must hit four distinct sub-cycle offsets.
	w := rec.Currents()[0]
	nonzero := 0
	for _, v := range w {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 4 {
		t.Fatalf("fast toggles occupy only %d samples", nonzero)
	}
}

func TestEndCyclePastCapture(t *testing.T) {
	fp, _ := smallPlan(t)
	rec, err := NewRecorder(DefaultConfig(), fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(1)
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	if err := rec.EndCycle(); err == nil {
		t.Fatal("EndCycle past capture must error")
	}
}

func TestBeginResetsState(t *testing.T) {
	fp, _ := smallPlan(t)
	cfg := DefaultConfig()
	cfg.ClockPinCharge = 0
	rec, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	rec.Begin(1)
	toggle(rec, 0)
	rec.AddStaticCurrent(0, 1)
	rec.AddFastToggles(0, 2, 1e-15)
	// Begin again without EndCycle: everything booked must vanish.
	rec.Begin(1)
	if err := rec.EndCycle(); err != nil {
		t.Fatal(err)
	}
	if got := rec.TotalCharge(); got != 0 {
		t.Fatalf("stale activity survived Begin: %g", got)
	}
}

func TestDtAndConfig(t *testing.T) {
	cfg := DefaultConfig()
	want := 1 / (cfg.ClockHz * float64(cfg.SamplesPerCycle))
	if cfg.Dt() != want {
		t.Fatal("Dt wrong")
	}
	fp, _ := smallPlan(t)
	rec, _ := NewRecorder(cfg, fp)
	if rec.Dt() != want || rec.Config().ClockHz != cfg.ClockHz {
		t.Fatal("accessors wrong")
	}
}

func TestProcessVariation(t *testing.T) {
	fp, n := smallPlan(t)
	base := DefaultConfig()
	base.ClockPinCharge = 0

	varied := base
	varied.VariationSigma = 0.1
	varied.CornerSigma = 0.1
	varied.VariationSeed = 5

	charge := func(cfg Config) float64 {
		rec, err := NewRecorder(cfg, fp)
		if err != nil {
			t.Fatal(err)
		}
		rec.Begin(1)
		for i := range n.Cells {
			toggle(rec, i)
		}
		if err := rec.EndCycle(); err != nil {
			t.Fatal(err)
		}
		return rec.TotalCharge()
	}

	nominal := charge(base)
	sampleA := charge(varied)
	if sampleA == nominal {
		t.Fatal("variation had no effect")
	}
	// Same seed reproduces the same chip.
	if charge(varied) != sampleA {
		t.Fatal("variation not deterministic per seed")
	}
	// A different seed gives a different chip.
	other := varied
	other.VariationSeed = 6
	if charge(other) == sampleA {
		t.Fatal("different seeds must differ")
	}
	// Variation is bounded: within ~50% of nominal at sigma 0.1.
	if sampleA < nominal*0.5 || sampleA > nominal*1.5 {
		t.Fatalf("variation unreasonable: %g vs %g", sampleA, nominal)
	}
}

// toggle books one rising toggle of each cell for the current cycle.
func toggle(rec *Recorder, cells ...int) {
	batch := make([]logic.ToggleEvent, len(cells))
	for i, cell := range cells {
		batch[i] = logic.ToggleEvent(cell)<<1 | 1
	}
	rec.DrainToggles(batch)
}

// TestLedgerMatchesRecorder pins the streaming lane-major ledger: every
// lane's flushed currents are bit-identical to a Recorder fed the same
// toggles (in an order where float-add reordering would show), static
// currents and sub-cycle pulses. The pulse trains include a tail that
// spills across two later cycles and one clipped at the window end;
// toggles booked after the last cycle are dropped on both sides.
func TestLedgerMatchesRecorder(t *testing.T) {
	fp, n := smallPlan(t)
	cfg := DefaultConfig()
	shared, err := NewRecorder(cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	led := NewLedger(shared)
	if err := led.Begin(0, 2, nil); err == nil {
		t.Fatal("zero-lane ledger must error")
	}
	last := len(n.Cells) - 1
	cells := []int{0, 3, 1, 0, 2, 0, 5, last, 1, 0}
	const lanes, cycles = 5, 4
	s := cfg.SamplesPerCycle
	// Lane l toggles cells[i] in cycle cy when laneHas says so, so lanes
	// see different subsets of the sequence.
	laneHas := func(l, i, cy int) bool { return (i*7+cy)>>uint(l%3)&1 == 1 || l == 4 }
	// Cycle 1's tail runs two cycles on, and cycle 3's past the window.
	fastCount := func(cy int) int { return []int{3, 2*s + 10, 1, 2 * s}[cy] }
	for pass := 0; pass < 2; pass++ { // the second pass reuses the buffers
		got := make([][][]float64, lanes)
		for l := range got {
			got[l] = make([][]float64, fp.Grid.NumTiles())
			for tile := range got[l] {
				got[l][tile] = make([]float64, cycles*s)
			}
		}
		flushed := 0
		err := led.Begin(lanes, cycles, func(lane, start int, cur [][]float64) {
			if start != flushed/lanes*s || lane != flushed%lanes {
				t.Fatalf("flush %d: lane %d start %d out of order", flushed, lane, start)
			}
			flushed++
			for tile, w := range cur {
				copy(got[lane][tile][start:], w)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for cy := 0; cy < cycles; cy++ {
			for i, cell := range cells {
				var diff uint64
				for l := 0; l < lanes; l++ {
					if laneHas(l, i, cy) {
						diff |= 1 << uint(l)
					}
				}
				led.OnWideToggle(int32(cell), diff|1<<40, 0) // bit 40 is no lane
			}
			led.AddStaticCurrent(0b10110, 3, 1e-4*float64(cy+1))
			led.AddStaticCurrent(0b00110, 3, 3e-5)
			led.AddFastToggles(1, 2, fastCount(cy), 3e-15)
			led.AddFastToggles(3, 0, 2, 1e-15)
			led.AddFastToggles(3, 2, 0, 1e-15) // no-op
			if err := led.EndCycle(); err != nil {
				t.Fatal(err)
			}
		}
		led.OnWideToggle(0, 1, 0) // past the last cycle: dropped
		if err := led.EndCycle(); err == nil {
			t.Fatal("EndCycle past the capture must error")
		}
		if flushed != lanes*cycles {
			t.Fatalf("%d flushes, want %d", flushed, lanes*cycles)
		}
		for l := 0; l < lanes; l++ {
			rec, err := NewRecorder(cfg, fp)
			if err != nil {
				t.Fatal(err)
			}
			rec.Begin(cycles)
			for cy := 0; cy < cycles; cy++ {
				var mine []int
				for i, cell := range cells {
					if laneHas(l, i, cy) {
						mine = append(mine, cell)
					}
				}
				toggle(rec, mine...)
				if 0b10110>>uint(l)&1 == 1 {
					rec.AddStaticCurrent(3, 1e-4*float64(cy+1))
				}
				if 0b00110>>uint(l)&1 == 1 {
					rec.AddStaticCurrent(3, 3e-5)
				}
				if l == 1 {
					rec.AddFastToggles(2, fastCount(cy), 3e-15)
				}
				if l == 3 {
					rec.AddFastToggles(0, 2, 1e-15)
				}
				if err := rec.EndCycle(); err != nil {
					t.Fatal(err)
				}
			}
			want := rec.Currents()
			for tile := range want {
				for i := range want[tile] {
					if got[l][tile][i] != want[tile][i] {
						t.Fatalf("pass %d lane %d tile %d sample %d: ledger %v != recorder %v",
							pass, l, tile, i, got[l][tile][i], want[tile][i])
					}
				}
			}
		}
	}
}
