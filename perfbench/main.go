// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator from outside, through its public entry points, on one of
// three workloads:
//
//   - campaign: back-to-back in-process fault campaigns (campaign.Engine)
//   - sweep: a fault-free grid exploration (explore.Engine) into a fresh
//     store, then the identical exploration resumed from that store
//   - serve: shrecd on a loopback listener, driven by repro.Remote with an
//     open loop of POST /simulate and a small campaign job twice a second
//
// It checks every deterministic output against digests recorded in
// golden.json and prints, as its last line, one JSON object with the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced run). Every figure is host time or host memory, except that
// the throughput figures are per reference second (see refspeed.go), so
// that the host's drifting speed cancels out; their host-time values
// are printed beside them. Simulated
// statistics are checked, not scored: the model has no reference
// measurements from real hardware, so no accuracy figure is reported.
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
//
// After a change to what a workload simulates, rewrite the digests with
//
//	bash perfbench/run.sh -record perfbench/golden.json
//
// Every end-to-end metric is reported on every workload. The workload
// named on the command line gets the largest share of the measured time;
// the other two run as shorter probes after it, so each metric is always
// measured by the operation it names.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// scale fixes the work behind one workload run.
type scale struct {
	Name string
	// CampWarmup/CampMeasure/CampTrials size each campaign.
	CampWarmup, CampMeasure uint64
	CampTrials              int
	// SweepWarmup/SweepMeasure are the run lengths of every grid point.
	SweepWarmup, SweepMeasure uint64
	// ServeWarmup/ServeMeasure are the server's run lengths; ServeRate is
	// the open loop's request rate; a job of JobTrials trials, each
	// measuring JobMeasure instructions, starts every JobEvery.
	ServeWarmup, ServeMeasure uint64
	ServeRate                 float64
	JobEvery                  time.Duration
	JobTrials                 int
	JobMeasure                uint64
	// ProbeInstrs sizes the component and core probes of a traced run.
	ProbeInstrs int
}

// scales are the benchmark's own size and a tiny one for its tests.
var scales = map[string]scale{
	"bench": {Name: "bench", CampWarmup: 10_000, CampMeasure: 10_000, CampTrials: 12,
		SweepWarmup: 2_500, SweepMeasure: 7_500,
		ServeWarmup: 5_000, ServeMeasure: 10_000, ServeRate: 150, JobEvery: 500 * time.Millisecond, JobTrials: 4, JobMeasure: 2_000,
		ProbeInstrs: 40_000},
	"tiny": {Name: "tiny", CampWarmup: 3_000, CampMeasure: 6_000, CampTrials: 4,
		SweepWarmup: 1_000, SweepMeasure: 3_000,
		ServeWarmup: 1_000, ServeMeasure: 3_000, ServeRate: 40, JobEvery: time.Second, JobTrials: 3, JobMeasure: 2_000,
		ProbeInstrs: 4_000},
}

// workloads in the order the benchmark reports them.
var workloads = []string{"campaign", "sweep", "serve"}

// Shares of --seconds: the named workload's body, and each other
// workload's probe. A traced run splits the main share between an
// untraced and a traced pass of the same body. The probes get nearly as
// much time as the body because their figures are gated too.
const (
	mainShare  = 0.4
	probeShare = 0.3
)

// setupRepeats is how many fresh processes are timed for setup_s, which
// is their median.
const setupRepeats = 21

// rssPercentile picks peak_rss_mb from the per-second peaks of the
// resident set. The Go runtime returns freed memory to the system
// within seconds, so the resident set swings between its floor and its
// peak; a high percentile of the swings is the peak the process keeps
// reaching, where VmHWM is the single worst moment of a collection.
const rssPercentile = 90.0

// env is the run's shared configuration.
type env struct {
	sc      scale
	seed    int64
	variant int
	nproc   int
	work    string
	golden  *goldens
	// ref times the reference kernel that the throughput figures are
	// normalised by (refspeed.go).
	ref *refKernel
}

// simOptions are the Suite options of every in-process body; campaign
// and exploration specs carry their own run lengths. The bodies simulate
// on one worker: on a host of a few shared vCPUs, a worker per vCPU plus
// the garbage collector measures the scheduler and the neighbours as
// much as the simulator, and the reference kernel (refspeed.go), run on
// the same goroutine, tracks one busy thread far better than a partly
// serial parallel loop.
func (e *env) simOptions() sim.Options { return sim.Options{Parallelism: 1} }

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
	// Info marks a figure printed for the reader but left out of the
	// result object, which carries only the declared metrics.
	Info bool
}

// metrics is an ordered set of figures.
type metrics struct{ list []metric }

func (m *metrics) add(name string, v float64, unit, note string) {
	m.list = append(m.list, metric{Name: name, Value: v, Unit: unit, Note: note})
}

func (m *metrics) info(name string, v float64, unit, note string) {
	m.list = append(m.list, metric{Name: name, Value: v, Unit: unit, Note: note, Info: true})
}

func (m *metrics) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}

// tally counts operations and collects what went wrong.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) add(attempted, failed int, problems []string) {
	t.attempted += attempted
	t.failed += failed
	t.problems = append(t.problems, problems...)
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload to run: campaign, sweep or serve")
	seed := fs.Int64("seed", 1, "input seed: selects the input variant and every random draw")
	seconds := fs.Float64("seconds", 20, "measured seconds of the run")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	root := fs.String("root", ".", "repository root; work files go under <root>/.bench_build/perfbench")
	rec := fs.String("record", "", "recompute every output digest and write golden.json to this path, then exit")
	setupOnly := fs.Bool("setup-only", false, "set up every workload body, print \"ready\" and exit (the timed child of setup_s)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	nproc := runtime.NumCPU()
	ctx := context.Background()
	if *rec != "" {
		if err := record(ctx, *rec, nproc); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	sc := scales["bench"]
	if *setupOnly {
		return setupChild(sc, *seed, *root, nproc)
	}
	if !isWorkload(*wl) || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload campaign|sweep|serve, --seconds > 0 and --trace 0|1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	setups, err := childSetups(setupRepeats, func() *exec.Cmd {
		return exec.Command(exe, "-setup-only", "-root", *root, "-seed", strconv.FormatInt(*seed, 10))
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e, cleanup, err := newEnv(sc, *seed, *root, nproc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer cleanup()

	res, err := execute(ctx, e, *wl, time.Duration(*seconds*float64(time.Second)), *traced == 1, setups)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	h := fingerprint(*root)
	fmt.Printf("# host cpu=%q nproc=%d go=%s commit=%s\n", h.CPU, h.NProc, h.Go, h.Commit)
	fmt.Printf("# workload=%s seed=%d variant=%d seconds=%g trace=%d\n",
		*wl, *seed, e.variant, *seconds, *traced)
	for _, m := range res.all.list {
		fmt.Printf("%-32s %14.6g %-9s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	fmt.Printf("%-32s %14.6g %-9s %d failed of %d attempted\n", "failed_frac",
		ratio(float64(res.t.failed), float64(res.t.attempted)), "ratio", res.t.failed, res.t.attempted)
	for _, p := range res.t.problems {
		fmt.Println("! " + p)
	}
	correct := res.t.failed == 0 && len(res.t.problems) == 0
	out := map[string]any{"correct": correct, "attempted": res.t.attempted, "failed": res.t.failed,
		"metrics": res.json}
	raw, _ := json.Marshal(out)
	fmt.Println(string(raw))
	if !correct {
		return 1
	}
	return 0
}

// newEnv loads the recorded digests and makes the run's work directory
// under root; cleanup removes the directory.
func newEnv(sc scale, seed int64, root string, nproc int) (*env, func(), error) {
	g, err := loadGoldens()
	if err != nil {
		return nil, nil, err
	}
	e := &env{sc: sc, seed: seed, variant: int(((seed % variants) + variants) % variants),
		nproc: nproc, golden: g,
		work: filepath.Join(root, ".bench_build", "perfbench", fmt.Sprintf("work-%d", os.Getpid()))}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, nil, err
	}
	return e, func() { os.RemoveAll(e.work) }, nil
}

// setupChild is the body of a -setup-only process: everything a run does
// before its first timed operation, then "ready" on standard output.
func setupChild(sc scale, seed int64, root string, nproc int) int {
	e, cleanup, err := newEnv(sc, seed, root, nproc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer cleanup()
	b := newBodies(e)
	if err := b.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	defer b.close()
	fmt.Println("ready")
	return 0
}

// childSetups starts n processes one after another and times each from
// its start until it prints "ready", so every sample pays the one-time
// costs of a fresh process: loading the program, package initialisation,
// first use of every table and listener.
func childSetups(n int, newCmd func() *exec.Cmd) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		cmd := newCmd()
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		el := time.Since(t)
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return nil, fmt.Errorf("set-up process %d: read %q (%v), exit %v", i, line, rerr, werr)
		}
		out = append(out, el.Seconds())
	}
	return out, nil
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// outcome is one run's report.
type outcome struct {
	all  metrics // every figure, for the human-readable lines
	json map[string]map[string]any
	t    tally
}

// bodies holds the three workload bodies of one run.
type bodies struct {
	camp  *campaignBody
	sweep *sweepBody
	serve *serveBody
}

func newBodies(e *env) bodies {
	return bodies{camp: &campaignBody{env: e}, sweep: &sweepBody{env: e}, serve: &serveBody{env: e}}
}

func (b bodies) setup() error {
	for _, f := range []func() error{b.camp.setup, b.sweep.setup, b.serve.setup} {
		if err := f(); err != nil {
			b.close()
			return err
		}
	}
	return nil
}

// close releases what set-up holds; only the serve body holds anything
// (its server, listener and connections).
func (b bodies) close() { b.serve.close() }

// execute sets up, runs the named workload's body and the other two
// probes, and assembles the metrics. setups are the set-up times of
// fresh processes, measured by the caller. With traced set it also runs
// the body traced and the probes traced, and reports per-layer metrics.
func execute(ctx context.Context, e *env, wl string, d time.Duration, traced bool, setups []float64) (outcome, error) {
	if e.ref == nil {
		e.ref = newRefKernel()
	}
	b := newBodies(e)
	if err := b.setup(); err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()

	var o outcome
	o.all.add("setup_s", median(setups), "s", fmt.Sprintf("median of n=%d fresh processes, process start to ready; min %.4fs, max %.4fs",
		len(setups), percentile(setups, 0), percentile(setups, 100)))

	mainD := time.Duration(mainShare * float64(d))
	probeD := time.Duration(probeShare * float64(d))
	var tr *tracer
	var untraced metrics
	if traced {
		// The untraced half of the main share is the tracing-overhead
		// baseline; the traced half and the probes feed the spans.
		mainD /= 2
		runBody(ctx, b, e, wl, mainD, nil, &untraced, &o.t)
		tr = newTracer()
	}
	var layers layerInputs
	rss := startRSS(20 * time.Millisecond)
	layers.merge(runBody(ctx, b, e, wl, mainD, tr, &o.all, &o.t))
	for _, other := range workloads {
		if other == wl {
			continue
		}
		var probe metrics
		layers.merge(runBody(ctx, b, e, other, probeD, tr, &probe, &o.t))
		for _, m := range probe.list {
			if m.Name != "minstr_per_ref_s" && m.Name != "minstr_per_s" {
				m.Note = "probe: " + m.Note
				o.all.list = append(o.all.list, m)
			}
		}
	}
	if wl == "serve" {
		// The server's own instruction rate follows the request rate, not
		// the simulator's speed, so serve reports the probes' rate.
		c, w := layers.camp, layers.sweep
		raw := (c.instrs + w.instrs) / (c.seconds + w.seconds) / 1e6
		speeds := append(append([]float64(nil), c.speeds...), w.speeds...)
		o.all.add("minstr_per_ref_s", perRefSecond(raw, speeds), "Minstr/ref_s",
			fmt.Sprintf("probes: requested instructions over %.2fs of campaign rounds and sweep cold passes, over the median of n=%d speed samples",
				c.seconds+w.seconds, len(speeds)))
		o.all.info("minstr_per_s", raw, "Minstr/s", "probes: the same per host second")
	}
	peaks := rss.finish()
	hwm, err := peakRSSMiB()
	if err != nil {
		return outcome{}, err
	}
	o.all.add("peak_rss_mb", percentile(peaks, rssPercentile), "MiB",
		fmt.Sprintf("p%g of n=%d one-second peaks of the resident set; VmHWM %.1f MiB", rssPercentile, len(peaks), hwm))

	o.json = map[string]map[string]any{}
	if !traced {
		for _, m := range o.all.list {
			if !m.Info {
				o.json[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
			}
		}
		return o, nil
	}

	set, err := probeSetFor(e, wl)
	if err != nil {
		return outcome{}, err
	}
	var pl metrics
	componentProbes(set, e.sc.ProbeInstrs, &pl)
	if err := coreProbes(set, uint64(e.sc.ProbeInstrs), &pl); err != nil {
		return outcome{}, err
	}
	if err := suiteProbes(ctx, set, e.work, &pl); err != nil {
		return outcome{}, err
	}
	spans := tr.snapshot()
	if err := writeSpans(filepath.Join(filepath.Dir(e.work), fmt.Sprintf("spans-%s-%d.json", wl, e.seed)), spans); err != nil {
		return outcome{}, err
	}
	layers.derive(summarize(spans), &pl)
	pl.add("bench.tracing_overhead", tracingOverhead(wl, &untraced, &o.all), "ratio",
		"traced / untraced cost of the main body, minus 1")
	o.all = pl
	for _, m := range pl.list {
		o.json[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return o, nil
}

// runBody runs one workload's body for d and appends its end-to-end
// figures to out. It returns the raw inputs of the per-layer metrics.
func runBody(ctx context.Context, b bodies, e *env, wl string, d time.Duration, tr *tracer, out *metrics, t *tally) layerInputs {
	// Collect the previous body's garbage before this one starts, so
	// neither its collection nor the server's teardown is timed here.
	runtime.GC()
	var li layerInputs
	switch wl {
	case "campaign":
		st := b.camp.run(ctx, d, tr)
		t.add(st.campaigns, st.failed, st.problems)
		rounds := fmt.Sprintf("median of n=%d rounds (%d campaigns, %d trials)", len(st.roundTrials), st.campaigns, st.trials)
		out.add("minstr_per_ref_s", perRefSecond(median(st.roundMinstr), st.speeds), "Minstr/ref_s", rounds)
		out.add("trials_per_ref_s", perRefSecond(median(st.roundTrials), st.speeds), "1/ref_s", rounds)
		out.info("minstr_per_s", median(st.roundMinstr), "Minstr/s", rounds+", host time")
		out.info("trials_per_s", median(st.roundTrials), "1/s", rounds+", host time")
		out.info("host_speed", median(st.speeds), "ref_s/s", fmt.Sprintf("median of n=%d reference-kernel samples, one before each campaign", len(st.speeds)))
		li.camp = &st
	case "sweep":
		st := b.sweep.run(ctx, d, tr)
		t.add(len(st.passPoints)+len(st.resumeS)+st.failed, st.failed, st.problems)
		passes := fmt.Sprintf("median of n=%d cold passes (%d points)", len(st.passPoints), st.points)
		out.add("minstr_per_ref_s", perRefSecond(median(st.passMinstr), st.speeds), "Minstr/ref_s", passes)
		out.add("points_per_ref_s", perRefSecond(median(st.passPoints), st.speeds), "1/ref_s", passes)
		out.info("minstr_per_s", median(st.passMinstr), "Minstr/s", passes+", host time")
		out.info("points_per_s", median(st.passPoints), "1/s", passes+", host time")
		out.info("host_speed", median(st.speeds), "ref_s/s", fmt.Sprintf("median of n=%d reference-kernel samples, %d before each cold pass", len(st.speeds), refPerPass))
		out.add("resume_s", median(st.resumeS), "s", fmt.Sprintf("median of n=%d resume passes", len(st.resumeS)))
		li.sweep = &st
	case "serve":
		st := b.serve.run(ctx, d, tr)
		t.add(len(st.reqs)+len(st.jobs), st.failed, st.problems)
		st.report(e.sc, out)
		li.serve = &st
		// A later run of the body gets a fresh server and a cold cache.
		b.serve.close()
		if err := b.serve.setup(); err != nil {
			t.add(0, 1, []string{fmt.Sprintf("restarting the server: %v", err)})
		}
	}
	return li
}

// tracingOverhead compares the main body's cost per operation traced
// and untraced.
func tracingOverhead(wl string, untraced, traced *metrics) float64 {
	name := map[string]string{"campaign": "trials_per_ref_s", "sweep": "points_per_ref_s", "serve": "req_p50_ms"}[wl]
	u, ok1 := untraced.get(name)
	t, ok2 := traced.get(name)
	if !ok1 || !ok2 || u.Value == 0 || t.Value == 0 {
		return 0
	}
	if wl == "serve" {
		// A latency: higher is costlier.
		return t.Value/u.Value - 1
	}
	return u.Value/t.Value - 1
}

// layerInputs carries each body's raw counters into the per-layer
// metrics.
type layerInputs struct {
	camp  *campaignStats
	sweep *sweepStats
	serve *serveStats
}

func (l *layerInputs) merge(o layerInputs) {
	if o.camp != nil {
		l.camp = o.camp
	}
	if o.sweep != nil {
		l.sweep = o.sweep
	}
	if o.serve != nil {
		l.serve = o.serve
	}
}

// derive computes the per-layer metrics from the traced spans and the
// traced bodies' counters.
func (l *layerInputs) derive(s spanSummary, out *metrics) {
	// sim: stage self-times from the in-process spans, plus the server's
	// own stage sums from /metrics.
	var server map[string]float64
	if l.serve != nil {
		server = l.serve.stageSums
	}
	for _, stage := range []string{"engine_run", "warmup_share", "cache_lookup", "dedup_wait", "store_write", "store_fetch"} {
		out.add("sim."+stage+"_s", s.selfS("sim."+stage)+server[stage], "s",
			fmt.Sprintf("self time; %.4fs in-process spans + %.4fs shrecd /metrics", s.selfS("sim."+stage), server[stage]))
	}
	var runs, shares, hits, lookups float64
	if c := l.camp; c != nil {
		runs += float64(c.runs)
		shares += float64(c.warmupShares)
		hits += float64(c.cacheHits)
		lookups += float64(c.lookups)
	}
	if w := l.sweep; w != nil {
		runs += float64(w.runs)
		hits += float64(w.cacheHits)
		lookups += float64(w.lookups)
	}
	out.add("sim.runs", runs, "count", "in-process Suites of the traced bodies")
	out.add("sim.warmup_share_ratio", ratio(shares, runs), "ratio", fmt.Sprintf("%.0f shares / %.0f runs", shares, runs))
	out.add("sim.cache_hit_ratio", ratio(hits, lookups), "ratio", fmt.Sprintf("%.0f hits / %.0f lookups", hits, lookups))

	var rollbacks float64
	if c := l.camp; c != nil {
		rollbacks = float64(c.rollbacks)
	}
	out.add("recovery.rollback_s", s.selfS("recovery.rollback"), "s", fmt.Sprintf("n=%d rollback spans", len(s.durs["recovery.rollback"])))
	out.add("recovery.rollbacks", rollbacks, "count", "Suite rollback counter")

	trials := s.durMs("campaign.trial", nil)
	tl := tailOf(trials)
	out.add("campaign.golden_s", s.totalS("campaign.golden_run"), "s", fmt.Sprintf("n=%d golden runs", len(s.durs["campaign.golden_run"])))
	out.add("campaign.trial_p50_ms", median(trials), "ms", fmt.Sprintf("n=%d trials, includes the wait for a simulation slot", len(trials)))
	out.add("campaign.trial_tail_ms", tl.Value, "ms", fmt.Sprintf("p%g, n=%d, %d beyond", tl.Q, tl.N, tl.Beyond))
	out.add("campaign.self_s", s.layerS("campaign"), "s", "wall time with a campaign span open and no sim stage running")
	var faulted, attempted float64
	if c := l.camp; c != nil {
		faulted, attempted = float64(c.faulted), float64(c.trials)
	}
	out.add("campaign.faulted_ratio", ratio(faulted, attempted), "ratio", fmt.Sprintf("%.0f faulted / %.0f trials", faulted, attempted))

	evals := s.durMs("explore.full_eval", func(g string) bool { return !strings.Contains(g, "-resume") })
	out.add("explore.baseline_s", s.totalS("explore.baseline_run"), "s", fmt.Sprintf("n=%d baseline spans", len(s.durs["explore.baseline_run"])))
	out.add("explore.eval_p50_ms", median(evals), "ms", fmt.Sprintf("n=%d cold-pass evaluations, includes the wait for a simulation slot", len(evals)))
	out.add("explore.self_s", s.layerS("explore"), "s", "wall time with an explore span open and no sim stage running")
	var resumed, revals float64
	var bytes []float64
	if w := l.sweep; w != nil {
		resumed, revals = float64(w.resumed), float64(w.evals)
		bytes = w.storeBytes
	}
	out.add("explore.resumed_ratio", ratio(resumed, revals), "ratio", fmt.Sprintf("%.0f resumed / %.0f resume-pass evaluations", resumed, revals))
	opens := s.durMs("store.open", nil)
	out.add("store.open_ms", median(opens), "ms", fmt.Sprintf("median of n=%d opens, fresh and written stores", len(opens)))
	out.add("store.bytes", median(bytes), "bytes", fmt.Sprintf("median of n=%d cold-pass stores", len(bytes)))

	var hitMs, missMs, late, jobs []float64
	var shed, retries, maxInfl float64
	var reqTail tail
	jobPh := map[string][]float64{}
	if v := l.serve; v != nil {
		reqTail, jobs = v.tailAndJobs()
		for _, r := range v.reqs {
			late = append(late, float64(r.late.Nanoseconds())/1e6)
			if r.err != nil {
				continue
			}
			if r.hit {
				hitMs = append(hitMs, float64(r.svc.Nanoseconds())/1e6)
			} else {
				missMs = append(missMs, float64(r.svc.Nanoseconds())/1e6)
			}
		}
		for _, j := range v.jobs {
			for _, ph := range []string{"queued", "golden_run", "trial"} {
				jobPh[ph] = append(jobPh[ph], j.phases[ph])
			}
		}
		shed, retries, maxInfl = v.shed, float64(v.retries), float64(v.maxInfl)
	}
	out.add("serve.req_tail_ms", reqTail.Value, "ms", fmt.Sprintf("p%g, n=%d, %d beyond, from scheduled send", reqTail.Q, reqTail.N, reqTail.Beyond))
	out.add("serve.job_p50_s", median(jobs), "s", fmt.Sprintf("n=%d timed jobs, Remote.StartCampaign to done", len(jobs)))
	out.add("http.hit_p50_ms", median(hitMs), "ms", fmt.Sprintf("n=%d repeat-key requests, from dispatch", len(hitMs)))
	out.add("http.miss_p50_ms", median(missMs), "ms", fmt.Sprintf("n=%d first-key requests, from dispatch", len(missMs)))
	out.add("shrecd.shed", shed, "count", "shrecd_shed_requests_total")
	out.add("remote.retries", retries, "count", "repro.Remote retry counter")
	for _, ph := range []struct{ name, phase string }{{"job.queued_s", "queued"}, {"job.golden_s", "golden_run"}, {"job.trial_s", "trial"}} {
		out.add(ph.name, median(jobPh[ph.phase]), "s", fmt.Sprintf("median over n=%d jobs of the %q phase", len(jobPh[ph.phase]), ph.phase))
	}
	lt := tailOf(late)
	out.add("loadgen.late_tail_ms", lt.Value, "ms", fmt.Sprintf("p%g, n=%d, %d beyond", lt.Q, lt.N, lt.Beyond))
	out.add("loadgen.max_inflight", maxInfl, "count", "outstanding /simulate requests")
}
