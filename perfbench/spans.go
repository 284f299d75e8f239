package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed interval of a traced run: a call the benchmark made
// into a layer, or a child the program reported through one of its own
// hooks (telemetry.Span.Tee). Names are "<layer>.<what>".
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Group is shared by every span of one request, job or pass.
	Group string `json:"group"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Hook marks children reported by the program; their parent is
	// resolved by containment when the run ends.
	Hook bool `json:"hook,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// layerRank orders layers from the outside in: a hook child is parented
// only under a span of a strictly outer layer.
var layerRank = map[string]int{
	"bench": 0, "shrecd": 1, "explore": 2, "campaign": 3, "sim": 4, "recovery": 5,
}

// phaseName maps a phase the program records on a telemetry span to the
// span name of the layer that records it.
func phaseName(phase string) string {
	layer := "sim"
	switch phase {
	case "golden_run", "trial":
		layer = "campaign"
	case "baseline_run", "full_eval", "screen_eval":
		layer = "explore"
	case "recovery_rollback":
		layer = "recovery"
	}
	return layer + "." + strings.TrimPrefix(phase, layer+"_")
}

// tracer keeps spans in memory. A nil tracer is tracing switched off:
// every method is a no-op, so bodies call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and the function that closes it.
func (t *tracer) begin(name, group string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Group: group,
		Start: int64(time.Since(t.t0)), End: -1})
	t.mu.Unlock()
	return id, func() {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// hook returns a telemetry span whose every phase record becomes a child
// span of parent: it ended when the record arrived and lasted as long as
// the program measured.
func (t *tracer) hook(group string, parent int) *telemetry.Span {
	if t == nil {
		return nil
	}
	return telemetry.NewSpan().Tee(func(phase string, seconds float64) {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent,
			Name: phaseName(phase), Group: group,
			Start: end - int64(seconds*1e9), End: end, Hook: true})
		t.mu.Unlock()
	})
}

// snapshot returns the closed spans with hook parents resolved.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	resolveParents(out)
	return out
}

// writeSpans dumps spans as JSON to path.
func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// containSlack absorbs the few microseconds between the program taking a
// phase's end time and the hook recording it.
const containSlack = int64(200 * time.Microsecond)

// resolveParents re-parents every hook span under the innermost span of
// the same group that contains it and belongs to a strictly outer layer.
// Spans keep the parent they were recorded with when nothing closer
// contains them.
func resolveParents(spans []span) {
	byGroup := map[string][]int{}
	for i, s := range spans {
		byGroup[s.Group] = append(byGroup[s.Group], i)
	}
	for i := range spans {
		c := &spans[i]
		if !c.Hook {
			continue
		}
		rank, ok := layerRank[c.layer()]
		if !ok {
			continue
		}
		best := -1
		for _, j := range byGroup[c.Group] {
			p := spans[j]
			if j == i || p.Start > c.Start+containSlack || p.End < c.End-containSlack {
				continue
			}
			if pr, ok := layerRank[p.layer()]; !ok || pr >= rank {
				continue
			}
			if best < 0 || p.dur() < spans[best].dur() {
				best = j
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
		}
	}
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the length of the union of its children's intervals, clipped to
// the span. Concurrent children therefore never drive a parent below
// zero.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionWithin(kids[s.ID], s.Start, s.End)
	}
	return out
}

// unionWithin is the total length of the union of ivs clipped to
// [lo, hi].
func unionWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	cl := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			cl = append(cl, [2]int64{a, b})
		}
	}
	if len(cl) == 0 {
		return 0
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	var total int64
	cur := cl[0]
	for _, iv := range cl[1:] {
		if iv[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = iv
		} else if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	return total + cur[1] - cur[0]
}

// merged sorts ivs and merges overlapping intervals.
func merged(ivs [][2]int64) [][2]int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var out [][2]int64
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], iv[1])
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// overlap is the total length shared by two merged interval lists.
func overlap(a, b [][2]int64) int64 {
	var total int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
		if hi > lo {
			total += hi - lo
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return total
}

// layerSelf is a layer's wall-clock self time: per group, how long some
// span of the layer was open while no span of a deeper layer was. Spans
// that merely wait for a simulation slot therefore count, but the same
// instant never counts twice however many spans overlap it.
func layerSelf(spans []span, layer string) int64 {
	rank := layerRank[layer]
	mine, deeper := map[string][][2]int64{}, map[string][][2]int64{}
	for _, s := range spans {
		iv := [2]int64{s.Start, s.End}
		switch r, ok := layerRank[s.layer()]; {
		case s.layer() == layer:
			mine[s.Group] = append(mine[s.Group], iv)
		case ok && r > rank:
			deeper[s.Group] = append(deeper[s.Group], iv)
		}
	}
	var total int64
	for g, ivs := range mine {
		m := merged(ivs)
		for _, iv := range m {
			total += iv[1] - iv[0]
		}
		total -= overlap(m, merged(deeper[g]))
	}
	return total
}

// spanSummary aggregates one traced run's spans by name.
type spanSummary struct {
	spans []span
	self  map[string]int64   // summed self time per span name
	total map[string]int64   // summed duration per span name
	durs  map[string][]int64 // every duration per span name
}

func summarize(spans []span) spanSummary {
	self := selfTimes(spans)
	sum := spanSummary{spans: spans, self: map[string]int64{}, total: map[string]int64{},
		durs: map[string][]int64{}}
	for _, s := range spans {
		sum.self[s.Name] += self[s.ID]
		sum.total[s.Name] += s.dur()
		sum.durs[s.Name] = append(sum.durs[s.Name], s.dur())
	}
	return sum
}

// selfS is the summed self time of one span name, in seconds.
func (s spanSummary) selfS(name string) float64 { return float64(s.self[name]) / 1e9 }

// totalS is the summed duration of one span name, in seconds.
func (s spanSummary) totalS(name string) float64 { return float64(s.total[name]) / 1e9 }

// layerS is the wall-clock self time of one layer, in seconds.
func (s spanSummary) layerS(layer string) float64 { return float64(layerSelf(s.spans, layer)) / 1e9 }

// durMs returns the durations of one span name in milliseconds, over the
// spans whose group passes keep (nil keeps all).
func (s spanSummary) durMs(name string, keep func(group string) bool) []float64 {
	var out []float64
	for _, sp := range s.spans {
		if sp.Name == name && (keep == nil || keep(sp.Group)) {
			out = append(out, float64(sp.dur())/1e6)
		}
	}
	return out
}
