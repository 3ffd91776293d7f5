package attack

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"emtrust/internal/chip"
)

var testKey = []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}

var (
	victimOnce sync.Once
	victimChip *chip.Chip
	victimErr  error
)

func victim(t testing.TB) *chip.Chip {
	t.Helper()
	victimOnce.Do(func() {
		cfg := chip.DefaultConfig()
		cfg.WithTrojans = false
		cfg.WithA2 = false
		victimChip, victimErr = chip.New(cfg)
	})
	if victimErr != nil {
		t.Fatal(victimErr)
	}
	return victimChip
}

func TestHypothesisModels(t *testing.T) {
	// The models must differ and respond to the input.
	models := []string{"load", "sbox", "combined", "profiled"}
	for _, m := range models {
		if hypothesis(m, 0x00, 0x00) != 0 {
			t.Errorf("model %s: zero transition should leak nothing", m)
		}
		varies := false
		base := hypothesis(m, 0x01, 0x00)
		for p := 2; p < 256; p++ {
			if hypothesis(m, byte(p), 0x00) != base {
				varies = true
				break
			}
		}
		if !varies {
			t.Errorf("model %s is constant", m)
		}
	}
	// XOR structure: hypothesis(p, k) depends only on p^k.
	if hypothesis("profiled", 0xAB, 0xCD) != hypothesis("profiled", 0xAB^0xCD, 0) {
		t.Error("hypothesis must be a function of p^k")
	}
}

func TestRunValidation(t *testing.T) {
	c := victim(t)
	rng := rand.New(rand.NewSource(1))
	if _, err := Run(c, make([]byte, 8), DefaultCPAConfig(), rng); err == nil {
		t.Fatal("short key must error")
	}
	bad := DefaultCPAConfig()
	bad.Traces = 2
	if _, err := Run(c, testKey, bad, rng); err == nil {
		t.Fatal("tiny trace budget must error")
	}
	bad = DefaultCPAConfig()
	bad.WindowEnd = bad.WindowStart
	if _, err := Run(c, testKey, bad, rng); err == nil {
		t.Fatal("empty window must error")
	}
	bad = DefaultCPAConfig()
	bad.Traces = 20
	bad.WindowEnd = 10000
	if _, err := Run(c, testKey, bad, rng); err == nil {
		t.Fatal("oversized window must error")
	}
	bad = DefaultCPAConfig()
	bad.WindowStart = -4
	if _, err := Run(c, testKey, bad, rng); err == nil {
		t.Fatal("negative window start must error")
	}
	// One sample past the 16-cycle trace is rejected before any
	// capture: not even the first plaintext is drawn.
	bad = DefaultCPAConfig()
	bad.WindowEnd = bad.Cycles*c.Config().Power.SamplesPerCycle + 1
	fresh := rand.New(rand.NewSource(9))
	if _, err := Run(c, testKey, bad, fresh); err == nil {
		t.Fatal("window past the trace end must error")
	}
	if fresh.Int63() != rand.New(rand.NewSource(9)).Int63() {
		t.Fatal("a window past the trace end was caught only after capturing")
	}
	bad = DefaultCPAConfig()
	bad.Model = "hw"
	if _, err := Run(c, testKey, bad, rng); err == nil {
		t.Fatal("unknown leakage model must error")
	}
	if _, err := hypothesisTable(""); err != nil {
		t.Fatalf("empty model must default to profiled: %v", err)
	}
}

// TestCPARecoversKey mounts the profiled attack with a reduced trace
// budget; most of the key must come out.
func TestCPARecoversKey(t *testing.T) {
	if testing.Short() {
		t.Skip("CPA needs thousands of simulated captures")
	}
	c := victim(t)
	cfg := DefaultCPAConfig()
	cfg.Traces = 2000
	res, err := Run(c, testKey, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	correct := res.Evaluate(testKey)
	t.Logf("recovered %d/16 key bytes at %d traces", correct, cfg.Traces)
	if correct < 12 {
		t.Fatalf("only %d/16 key bytes recovered", correct)
	}
	for b, br := range res.Bytes {
		if br.Correlation <= 0 {
			t.Errorf("byte %d: non-positive correlation", b)
		}
	}
	if !strings.Contains(res.String(), "16 bytes") && !strings.Contains(res.String(), "/16") {
		t.Error("rendering broken")
	}
}

// The analytic (unprofiled) models must do strictly worse than the
// profiled template — that gap is the point of shipping the profile.
func TestProfiledBeatsAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("CPA needs thousands of simulated captures")
	}
	c := victim(t)
	run := func(model string) int {
		cfg := DefaultCPAConfig()
		cfg.Traces = 1200
		cfg.Model = model
		res, err := Run(c, testKey, cfg, rand.New(rand.NewSource(4)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Evaluate(testKey)
	}
	analytic := run("combined")
	profiled := run("profiled")
	t.Logf("combined model: %d/16, profiled: %d/16 (1200 traces)", analytic, profiled)
	if profiled <= analytic {
		t.Fatalf("profiled (%d) must beat the analytic model (%d)", profiled, analytic)
	}
}

// pinnedRun is a 150-trace profiled attack on a fresh golden chip (seed
// 11, plaintext stream 5): 150 is not a multiple of the capture chunk,
// so the last batch is partial. Its per-byte guesses, correlation bits
// and margin bits were recorded from the one-scalar-capture-per-trace
// implementation, which reset the chip before every capture.
var pinnedRun = [16]struct {
	guess                byte
	corrBits, marginBits uint64
}{
	{0x2b, 0x3fd53eb1b1099488, 0x3ff3a47a9851ec88},
	{0x7e, 0x3fd656445c47d107, 0x3ff3209979c2537e},
	{0x15, 0x3fd97248e7a80353, 0x3ff54bc0c32f6f35},
	{0xfe, 0x3fd309947cdef351, 0x3ff0066fa1729b19},
	{0xab, 0x3fd1214d7d596649, 0x3ff07b75906e9883},
	{0xae, 0x3fd502f6f8332dd4, 0x3ff33771cafbc2bb},
	{0xf6, 0x3fd25161589a8497, 0x3ff0e89e9d9e1f3d},
	{0xe7, 0x3fd3fa378027733a, 0x3ff0924bc3bcc17f},
	{0xf0, 0x3fd5ff7e45b0ba8c, 0x3ff30713c0ae905a},
	{0xf7, 0x3fd4941a761d43f8, 0x3ff13c8a8e186258},
	{0xbe, 0x3fd36700bc0e85a1, 0x3ff02f6ed469fef3},
	{0x0f, 0x3fd61c4b06157352, 0x3ff20d967c510fc1},
	{0x90, 0x3fd28ae1178f269c, 0x3ff07d402353b33a},
	{0x88, 0x3fd619630b506b6f, 0x3ff128b14ec740ff},
	{0x99, 0x3fd17cd42b40c651, 0x3ff0de5e35c79454},
	{0xef, 0x3fd32c90f86a8833, 0x3ff20eca2b824264},
}

// TestRunPinned pins Run bit for bit against the serial implementation
// it replaced, at every batch lane cap, and the hypothesis tables
// against the model function they tabulate.
func TestRunPinned(t *testing.T) {
	for _, model := range []string{"load", "sbox", "combined", "profiled"} {
		tab, err := hypothesisTable(model)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 256; p++ {
			for _, k := range []byte{0x00, 0x3c, byte(p), 0xff} {
				if got, want := tab[byte(p)^k], hypothesis(model, byte(p), k); got != want {
					t.Fatalf("model %s: table[%#02x^%#02x] = %v, hypothesis = %v", model, p, k, got, want)
				}
			}
		}
	}
	for _, lanes := range []int{1, 7, 64} {
		cfg := chip.DefaultConfig()
		cfg.WithTrojans = false
		cfg.WithA2 = false
		cfg.Seed = 11
		c, err := chip.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		acfg := DefaultCPAConfig()
		acfg.Traces = 150
		restore := chip.SetBatchLanes(lanes)
		res, err := Run(c, testKey, acfg, rand.New(rand.NewSource(5)))
		restore()
		if err != nil {
			t.Fatal(err)
		}
		for b, want := range pinnedRun {
			got := res.Bytes[b]
			if got.Guess != want.guess || math.Float64bits(got.Correlation) != want.corrBits ||
				math.Float64bits(got.Margin) != want.marginBits {
				t.Fatalf("lanes %d byte %d: got %#02x %#016x %#016x, want %#02x %#016x %#016x",
					lanes, b, got.Guess, math.Float64bits(got.Correlation), math.Float64bits(got.Margin),
					want.guess, want.corrBits, want.marginBits)
			}
		}
	}
}
