package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the public function it invokes. Start and End are offsets from the
// tracer's origin; Parent is the index of the enclosing span or -1.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for one child process; they are written
// out when the run ends. A nil tracer records nothing, so the untraced
// run pays one nil check per boundary. Not safe for concurrent use: the
// harness records spans only from its own driving goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.origin))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// layerOf maps a span name such as "chip.capture" to its layer "chip".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in seconds over the spans
// nested in root (root excluded): a span's duration minus the part its
// children cover. Children of one parent are sequential, so their
// durations add without overlap.
func selfTimes(spans []span, root int) map[string]float64 {
	childSum := make([]int64, len(spans))
	inside := make([]bool, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			continue
		}
		childSum[s.Parent] += s.End - s.Start
		inside[i] = s.Parent == root || inside[s.Parent]
	}
	out := make(map[string]float64)
	for i, s := range spans {
		if !inside[i] {
			continue
		}
		out[layerOf(s.Name)] += float64(s.End-s.Start-childSum[i]) / 1e9
	}
	return out
}

// durations returns the durations in microseconds of every span with
// the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// timeEach runs fn n times and returns each call's duration in
// microseconds.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return out
}

// ledgerLayers are the layers whose self time the ledger reports as
// <layer>.self_s per measured pass.
var ledgerLayers = []string{"chip", "trace", "degrade", "core", "fleet", "attack", "campaign"}

// finishLedger records each layer's self time within the pass and the
// unattributed residue: the share of the pass that no layer's span or
// replay-derived estimate covers.
func finishLedger(L, self map[string]float64, passS float64) {
	covered := 0.0
	for _, l := range ledgerLayers {
		L[l+".self_s"] = self[l]
		covered += self[l]
	}
	L["unattributed_frac"] = math.Max(0, passS-covered) / passS
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
