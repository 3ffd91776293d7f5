// Command perfbench is the repository benchmark: it runs one named
// workload end to end through the emtrust entry points, checks the
// workload's outputs, and prints every metric by name with its unit.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Each sample runs in a fresh child process, so the process-wide caches
// (chip builds, captures, EMF couplings, DSP plans) start cold and
// their fill cost lands in setup_s. The parent repeats children until
// the measured time reaches -seconds, then reports medians. With
// -trace 1 the children alternate untraced and traced, and the traced
// ones also time each layer's public calls from the harness and report
// the per-layer ledger.
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload monitor --seed 3 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workload is one named benchmark input set. run performs, in the
// calling (child) process, the cold set-up, one measured pass and the
// output checks; with a non-nil tracer it also records spans and runs
// the per-layer replays. With setupOnly it returns after the set-up.
type workload struct {
	name string
	// unit names one operation of the pass in the printed summary.
	unit string
	run  func(seed int64, tr *tracer, setupOnly bool) (*sample, error)
}

var workloads = []workload{
	{"fleet", "verdicts", runFleet},
	{"monitor", "verdicts", runMonitor},
	{"cpa", "traces", runCPA},
	{"campaign", "members", runCampaign},
}

// sample is one child's result.
type sample struct {
	SetupS float64 `json:"setup_s"`
	PassS  float64 `json:"pass_s"`
	// Ops is the pass's completed operations (verdicts, traces or
	// members); Attempted and Failed feed failed_frac.
	Ops       int `json:"ops"`
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// LatencyMs holds per-operation latencies where the workload can
	// time single operations from outside (monitor only).
	LatencyMs  []float64 `json:"latency_ms,omitempty"`
	PeakHeapMB float64   `json:"peak_heap_mb"`
	// Outcome holds the deterministic outcome counts and the stream
	// hashes; every child of one run must agree on them.
	Outcome map[string]float64 `json:"outcome"`
	Digest  string             `json:"digest"`
	// Problems lists failed output checks.
	Problems []string `json:"problems,omitempty"`
	// Layers holds the traced run's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
	Traced bool               `json:"traced"`
}

// check records a failed output check.
func (s *sample) check(ok bool, format string, args ...any) {
	if !ok {
		s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd and perLayer list the metrics of BENCHMARK.json with their
// units, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"chip.build_ms", "ms"},
	{"chip.capture_p50_us", "us"},
	{"chip.capture_p99_us", "us"},
	{"chip.replay_ratio", "ratio"},
	{"chip.capture_hit_ratio", "ratio"},
	{"chip.build_hit_ratio", "ratio"},
	{"logic.cycle_ns", "ns"},
	{"logic.toggles_per_cycle", "count"},
	{"power.cycle_ns", "ns"},
	{"emfield.emf_us", "us"},
	{"emfield.coupling_ms", "ms"},
	{"trace.acquire_us", "us"},
	{"degrade.acquire_us", "us"},
	{"core.health_us", "us"},
	{"core.fingerprint_us", "us"},
	{"core.spectral_us", "us"},
	{"core.fit_ms", "ms"},
	{"dsp.spectrum_us", "us"},
	{"fleet.tick_p50_us", "us"},
	{"fleet.tick_p99_us", "us"},
	{"fleet.enroll_ms_per_die", "ms"},
	{"fleet.queue_len_max", "count"},
	{"fleet.rejected_ratio", "ratio"},
	{"fleet.status_us", "us"},
	{"attack.correlate_s", "s"},
	{"campaign.generate_s", "s"},
	{"campaign.search_ms", "ms"},
	{"campaign.coverage", "ratio"},
	{"chip.self_s", "s"},
	{"trace.self_s", "s"},
	{"degrade.self_s", "s"},
	{"core.self_s", "s"},
	{"fleet.self_s", "s"},
	{"attack.self_s", "s"},
	{"campaign.self_s", "s"},
	{"unattributed_frac", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// Child scheduling: at least minSamples untraced children (minPairs
// untraced/traced pairs with -trace 1), more until the measured time
// reaches -seconds, and none started after budget. Where set-up is
// cheap, set-up-only children top the set-up count up to minSetups
// within setupBudget of set-up time.
const (
	minSamples  = 3
	minPairs    = 2
	maxSamples  = 40
	budget      = 120 * time.Second
	minSetups   = 9
	setupBudget = 3.0 // seconds
)

func main() {
	name := flag.String("workload", "", "workload to run: fleet, monitor, cpa or campaign")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured time to accumulate across samples")
	traceOn := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := flag.String("root", ".", "repository root; results go to <root>/.bench_build")
	child := flag.Bool("child", false, "internal: run one sample in this process")
	setupOnly := flag.Bool("setup-only", false, "internal: with -child, run only the set-up")
	flag.Parse()

	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *child {
		os.Exit(runChild(w, *seed, *traceOn == 1, *setupOnly, *root))
	}
	if err := runParent(w, *seed, *seconds, *traceOn == 1, *root); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runChild runs one sample and writes it as JSON to standard output.
func runChild(w workload, seed int64, traced, setupOnly bool, root string) int {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	heap := startHeapSampler()
	s, err := w.run(seed, tr, setupOnly)
	peak := heap()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", w.name, err)
		return 1
	}
	s.PeakHeapMB = peak
	s.Traced = traced
	if tr != nil {
		path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d-%d.json", w.name, seed, os.Getpid()))
		if err := writeJSON(path, tr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// startHeapSampler polls the live heap every few milliseconds and
// returns the function that stops the poller and reports the peak in
// MB. runtime/metrics reads do not stop the world.
func startHeapSampler() func() float64 {
	sm := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(sm)
		peak = max(peak, sm[0].Value.Uint64())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		read()
		return float64(peak) / (1 << 20)
	}
}

// collect runs children until the measured time is reached and returns
// the untraced and traced samples and every set-up time measured.
func collect(exe string, w workload, seed int64, seconds float64, traced bool, root string) (plain, withTrace []*sample, setups []float64, err error) {
	start := time.Now()
	measured := 0.0
	for i := 0; i < maxSamples; i++ {
		paired := !traced || len(plain) == len(withTrace)
		enough := len(plain) >= minSamples && measured >= seconds
		if traced {
			enough = len(withTrace) >= minPairs && paired && measured >= seconds
		}
		if enough || (i > 0 && paired && time.Since(start) > budget) {
			break
		}
		tracedChild := traced && i%2 == 1
		s, err := spawn(exe, w, seed, tracedChild, false, root)
		if err != nil {
			return nil, nil, nil, err
		}
		measured += s.PassS
		if tracedChild {
			withTrace = append(withTrace, s)
		} else {
			plain = append(plain, s)
			setups = append(setups, s.SetupS)
		}
	}
	for spent := 0.0; !traced && len(setups) < minSetups && spent+median(setups) < setupBudget; {
		s, err := spawn(exe, w, seed, false, true, root)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, s.SetupS)
		spent += s.SetupS
	}
	return plain, withTrace, setups, nil
}

// runParent collects the samples, checks that they agree, and prints
// the summary and the result line.
func runParent(w workload, seed int64, seconds float64, traced bool, root string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	plain, withTrace, setups, err := collect(exe, w, seed, seconds, traced, root)
	if err != nil {
		return err
	}
	all := append(append([]*sample(nil), plain...), withTrace...)

	attempted, failed := 0, 0
	var problems []string
	for _, s := range all {
		attempted += s.Attempted
		failed += s.Failed
		problems = append(problems, s.Problems...)
	}
	// Every child ran the same seed, so the deterministic outcome and
	// the stream digest must repeat exactly.
	for _, s := range all[1:] {
		if s.Digest != all[0].Digest || !sameOutcome(s.Outcome, all[0].Outcome) {
			problems = append(problems, fmt.Sprintf("outcome differs between samples of seed %d: %v/%s vs %v/%s",
				seed, s.Outcome, s.Digest, all[0].Outcome, all[0].Digest))
			failed += s.Ops
		}
	}
	correct := len(problems) == 0 && failed == 0

	col := func(ss []*sample, f func(*sample) float64) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = f(s)
		}
		return out
	}
	// Timings are medians. A sample's heap peak depends on where its GC
	// cycles fall, which only ever raises it, so the run reports the
	// smallest peak of its samples.
	e2e := map[string]float64{
		"setup_s":      median(setups),
		"ops_per_s":    median(col(plain, func(s *sample) float64 { return float64(s.Ops) / s.PassS })),
		"peak_heap_mb": quantile(col(plain, func(s *sample) float64 { return s.PeakHeapMB }), 0),
	}
	var lat []float64
	for _, s := range plain {
		lat = append(lat, s.LatencyMs...)
	}

	prov := provenance(root, seed, len(plain), len(withTrace), len(setups))
	fmt.Printf("perfbench %s  seed %d  %d untraced + %d traced samples, %d set-ups\n",
		w.name, seed, len(plain), len(withTrace), len(setups))
	for _, k := range []string{"commit", "source_sha256", "go", "gomaxprocs", "cpu"} {
		fmt.Printf("  %-14s %v\n", k, prov[k])
	}
	fmt.Println("end-to-end (untraced samples):")
	for _, m := range endToEnd {
		fmt.Printf("  %-22s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	named := namedMetrics(w, e2e, lat, attempted, failed, all[0].Outcome)
	for _, m := range named {
		fmt.Printf("  %-22s %14.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}

	result := map[string]any{
		"workload":   w.name,
		"provenance": prov,
		"correct":    correct,
		"attempted":  attempted,
		"failed":     failed,
		"problems":   problems,
		"end_to_end": e2e,
		"named":      named,
		"samples":    stripLatency(all),
	}
	metricsOut := map[string]any{}
	if traced {
		layers := layerMedians(withTrace)
		layers["trace_overhead_frac"] = median(col(withTrace, func(s *sample) float64 { return s.PassS }))/
			median(col(plain, func(s *sample) float64 { return s.PassS })) - 1
		fmt.Println("per-layer (medians over traced samples; 0 = layer not on this workload's path):")
		for _, m := range perLayer {
			fmt.Printf("  %-26s %14.6g %s\n", m.name, layers[m.name], m.unit)
			metricsOut[m.name] = map[string]any{"value": layers[m.name], "unit": m.unit}
		}
		result["per_layer"] = layers
	} else {
		for _, m := range endToEnd {
			metricsOut[m.name] = map[string]any{"value": e2e[m.name], "unit": m.unit}
		}
	}
	for _, p := range problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	path := filepath.Join(root, ".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, boolInt(traced)))
	if err := writeJSON(path, result); err != nil {
		return err
	}
	fmt.Printf("details: %s\n", path)
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metricsOut,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// spawn runs one child and decodes its sample.
func spawn(exe string, w workload, seed int64, traced, setupOnly bool, root string) (*sample, error) {
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-trace", strconv.Itoa(boolInt(traced)), "-setup-only="+strconv.FormatBool(setupOnly), "-root", root)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	// The child dies with the parent, so a parent stopped from outside
	// leaves no sample running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s sample: %w", w.name, err)
	}
	var s sample
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("%s sample: %w", w.name, err)
	}
	if s.SetupS <= 0 || (!setupOnly && (s.PassS <= 0 || s.Ops <= 0)) {
		return nil, fmt.Errorf("%s sample measured nothing", w.name)
	}
	return &s, nil
}

func sameOutcome(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// layerMedians takes the median of each per-layer metric across the
// traced samples.
func layerMedians(ss []*sample) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range perLayer {
		var vs []float64
		for _, s := range ss {
			vs = append(vs, s.Layers[m.name])
		}
		out[m.name] = median(vs)
	}
	return out
}

// namedMetric is one of the workload-level metric names, printed for
// the workloads it applies to.
type namedMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// namedMetrics maps the generic end-to-end metrics onto the workload's
// own names (verdicts_per_s, traces_per_s, members_per_s, the monitor's
// verdict latency) and adds failed_frac and the outcome counts.
func namedMetrics(w workload, e2e map[string]float64, lat []float64, attempted, failed int, outcome map[string]float64) []namedMetric {
	var out []namedMetric
	add := func(name string, v float64, unit, note string) {
		out = append(out, namedMetric{Name: name, Value: v, Unit: unit, Note: note})
	}
	add(w.unit+"_per_s", e2e["ops_per_s"], "1/s", "")
	if len(lat) > 0 {
		n := fmt.Sprintf("(n=%d, %d beyond p99)", len(lat), len(lat)/100)
		add("verdict_p50_ms", quantile(lat, 0.50), "ms", n)
		add("verdict_p99_ms", quantile(lat, 0.99), "ms", n)
	}
	add("failed_frac", float64(failed)/float64(max(attempted, 1)), "ratio", fmt.Sprintf("(%d of %d)", failed, attempted))
	keys := make([]string, 0, len(outcome))
	for k := range outcome {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	unit := "count"
	if w.name == "campaign" {
		unit = "ratio" // TPR and FPR at margin 1.0
	}
	for _, k := range keys {
		add(k, outcome[k], unit, "")
	}
	return out
}

func stripLatency(ss []*sample) []sample {
	out := make([]sample, len(ss))
	for i, s := range ss {
		out[i] = *s
		out[i].LatencyMs = nil
	}
	return out
}

// provenance stamps what the numbers were measured on.
func provenance(root string, seed int64, plain, traced, setups int) map[string]any {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"commit":           commit,
		"source_sha256":    sourceDigest(root),
		"go":               runtime.Version(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"num_cpu":          runtime.NumCPU(),
		"cpu":              cpuModel(),
		"seed":             seed,
		"untraced_samples": plain,
		"traced_samples":   traced,
		"setup_samples":    setups,
	}
}

// sourceDigest hashes the module's Go sources and go.mod, identifying
// the measured code where no git metadata exists. Unreadable entries
// are left out: the digest names the code, it does not vouch for it.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel returns the first CPU model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
