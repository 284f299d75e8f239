package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestMain turns the test binary into a -setup-only child at the tiny
// scale when TestTinyRuns starts it for setup_s.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_SETUP_CHILD") == "1" {
		root, err := os.MkdirTemp("", "perfbench-setup")
		if err != nil {
			os.Exit(1)
		}
		code := setupChild(scales["tiny"], 7, root, 2)
		os.RemoveAll(root)
		os.Exit(code)
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{20, 1}, {40, 2}, {50, 3}, {60, 3}, {61, 4}, {100, 5},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{10000, 99.9, 10}, // rank 9990 leaves exactly 10 above it
		{9999, 99.5, 49},  // p99.9 would leave 9
		{1000, 99, 10},
		{999, 98, 19},
		{200, 95, 10},
		{100, 90, 10},
		{40, 75, 10},
		{25, 50, 12},
		{5, 50, 2}, // too few samples for any rung: the median, flagged thin
	} {
		tl := tailOf(seq(c.n))
		if tl.Q != c.q || tl.Beyond != c.beyond || tl.N != c.n {
			t.Errorf("n=%d: got p%g with %d beyond (n=%d), want p%g with %d beyond",
				c.n, tl.Q, tl.Beyond, tl.N, c.q, c.beyond)
		}
		if want := float64(rankOf(c.n, c.q)); tl.Value != want {
			t.Errorf("n=%d: value %g, want %g", c.n, tl.Value, want)
		}
	}
}

func TestUnionWithin(t *testing.T) {
	for _, c := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{2, 4}}, 0, 10, 2},
		{[][2]int64{{2, 6}, {4, 8}}, 0, 10, 6},             // overlap counted once
		{[][2]int64{{1, 2}, {3, 4}}, 0, 10, 2},             // disjoint
		{[][2]int64{{-5, 3}, {8, 20}}, 0, 10, 5},           // clipped to the parent
		{[][2]int64{{6, 9}, {1, 3}, {2, 7}}, 0, 10, 8},     // unsorted input
		{[][2]int64{{1, 9}, {2, 3}, {4, 5}}, 0, 10, 8},     // nested
		{[][2]int64{{20, 30}}, 0, 10, 0},                   // outside
		{[][2]int64{{0, 10}, {0, 10}, {0, 10}}, 0, 10, 10}, // many concurrent children
	} {
		if got := unionWithin(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("unionWithin(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

// spansFixture is one campaign root with two concurrent trials; each
// trial ran one engine_run, and the second engine_run contained a
// rollback. The hook children arrive parented to the root. Times are in
// milliseconds, well above the containment slack.
func spansFixture() []span {
	spans := []span{
		{ID: 1, Name: "campaign.run", Group: "g", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "campaign.trial", Group: "g", Start: 10, End: 60, Hook: true},
		{ID: 3, Parent: 1, Name: "campaign.trial", Group: "g", Start: 10, End: 90, Hook: true},
		{ID: 4, Parent: 1, Name: "sim.engine_run", Group: "g", Start: 20, End: 50, Hook: true},
		{ID: 5, Parent: 1, Name: "sim.engine_run", Group: "g", Start: 55, End: 85, Hook: true},
		{ID: 6, Parent: 1, Name: "recovery.rollback", Group: "g", Start: 60, End: 70, Hook: true},
		{ID: 7, Name: "sim.engine_run", Group: "other", Start: 0, End: 100},
	}
	for i := range spans {
		spans[i].Start *= ms
		spans[i].End *= ms
	}
	return spans
}

const ms = int64(time.Millisecond)

func TestResolveParentsPicksInnermostOuterLayer(t *testing.T) {
	spans := spansFixture()
	resolveParents(spans)
	want := map[int]int{2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 0}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d (%s): parent %d, want %d", s.ID, s.Name, s.Parent, want[s.ID])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := spansFixture()
	resolveParents(spans)
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 80, // trials cover [10, 90]
		2: 50 - 30,
		3: 80 - 30,
		4: 30,
		5: 30 - 10,
		6: 10,
		7: 100,
	}
	for id, w := range want {
		if self[id] != w*ms {
			t.Errorf("span %d: self %dms, want %dms", id, self[id]/ms, w)
		}
	}
	// The campaign layer is open over [0, 100] and a deeper layer runs
	// over [20, 50] ∪ [55, 85]; the other group has no campaign spans.
	if got := layerSelf(spans, "campaign"); got != (100-60)*ms {
		t.Errorf("campaign layer self %dms, want 40ms", got/ms)
	}
	if got := layerSelf(spans, "sim"); got != (60-10+100)*ms {
		t.Errorf("sim layer self %dms, want 150ms", got/ms)
	}
}

func TestPhaseName(t *testing.T) {
	for phase, want := range map[string]string{
		"golden_run": "campaign.golden_run", "trial": "campaign.trial",
		"full_eval": "explore.full_eval", "baseline_run": "explore.baseline_run",
		"recovery_rollback": "recovery.rollback", "engine_run": "sim.engine_run",
		"cache_lookup": "sim.cache_lookup",
	} {
		if got := phaseName(phase); got != want {
			t.Errorf("phaseName(%q) = %q, want %q", phase, got, want)
		}
	}
}

func TestPerRefSecond(t *testing.T) {
	// Speeds 0.5, 2 and 1 have median 1, so the rate is unchanged; at
	// half speed a host second is half a reference second.
	if got := perRefSecond(30, []float64{0.5, 2, 1}); got != 30 {
		t.Errorf("perRefSecond(30, median 1) = %g, want 30", got)
	}
	if got := perRefSecond(30, []float64{0.5, 0.5, 0.4}); got != 60 {
		t.Errorf("perRefSecond(30, median 0.5) = %g, want 60", got)
	}
	if got := perRefSecond(30, nil); got != 0 {
		t.Errorf("perRefSecond with no samples = %g, want 0", got)
	}
	if s := newRefKernel().speed(); !(s > 0) {
		t.Errorf("reference speed %g, want > 0", s)
	}
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestTinyRuns runs every workload at the tiny scale, untraced and
// traced, and requires the output check to pass and the result to carry
// exactly the metrics BENCHMARK.json declares.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := declared(t)
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	setups, err := childSetups(3, func() *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "PERFBENCH_SETUP_CHILD=1")
		return cmd
	})
	if err != nil || len(setups) != 3 {
		t.Fatalf("set-up processes: %v %v", setups, err)
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			e := &env{sc: scales["tiny"], seed: 7, variant: 7, nproc: 2, golden: g, work: t.TempDir()}
			o, err := execute(context.Background(), e, wl, 2*time.Second, traced, setups)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if o.t.failed != 0 || len(o.t.problems) != 0 || o.t.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", wl, traced, o.t.failed, o.t.attempted, o.t.problems)
			}
			var got []string
			for name := range o.json {
				got = append(got, name)
			}
			sort.Strings(got)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", wl, traced, got, want)
			}
		}
	}
}
