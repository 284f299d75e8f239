package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/explore"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// detectionModes is every detection mode the simulator models, with the
// metric label each one reports under.
var detectionModes = []struct{ Spec, Label string }{
	{"ss1", "ss1"}, {"ss2", "ss2"}, {"ss2+s", "ss2-s"}, {"shrec", "shrec"},
	{"o3rs", "o3rs"}, {"diva", "diva"}, {"meek@2", "meek2"},
	{"shrec+ctx8", "shrec-ctx8"}, {"flex", "flex"},
}

// sweepXScales are the issue-width scalings crossed with every mode.
var sweepXScales = []float64{0.5, 1, 2}

// sweepBenchmarks score every point.
var sweepBenchmarks = []string{"crafty", "swim"}

// sweepSpec is the fault-free grid: every detection mode × X scale. The
// seed shapes nothing a fault-free grid computes, so every variant
// shares one recorded digest.
func sweepSpec(sc scale) explore.Spec {
	bases := make([]string, len(detectionModes))
	for i, m := range detectionModes {
		bases[i] = m.Spec
	}
	return explore.Spec{
		Space:        explore.Space{Bases: bases, XScales: sweepXScales},
		Strategy:     explore.StrategyGrid,
		Benchmarks:   sweepBenchmarks,
		WarmupInstrs: sc.SweepWarmup, MeasureInstrs: sc.SweepMeasure,
	}
}

// sweepDigest identifies a cold pass's deterministic outcome: every
// simulation the pass ran (Stats carry ArchSig), every evaluation, and
// the frontier.
func sweepDigest(res *explore.Result, sims []sim.Result) string {
	return digestJSON(struct {
		Sims     []sim.Result
		Evals    []explore.Eval
		Frontier []int
	}{sims, res.Evals, res.Frontier})
}

// evalDigest covers what a resume pass must reproduce from the store.
func evalDigest(res *explore.Result) string {
	return digestJSON(struct {
		Evals    []explore.Eval
		Frontier []int
		Base     float64
	}{res.Evals, res.Frontier, res.BaselineIPC})
}

// resumesPerPass is how many resume passes follow each cold pass.
const resumesPerPass = 10

// refPerPass is how many reference-kernel samples precede each cold
// pass. A pass lasts about a second, so two samples keep the sweep's
// sampling rate of host speed near the campaign loop's.
const refPerPass = 2

// sweepBody repeats a cold exploration into a fresh store, then the
// identical exploration on a fresh Suite and Engine against that store.
type sweepBody struct {
	env  *env
	spec explore.Spec
	dir  string
	pass int
}

func (b *sweepBody) setup() error {
	spec, err := explore.Normalize(sweepSpec(b.env.sc), b.env.simOptions())
	if err != nil {
		return err
	}
	b.spec = spec
	b.dir = filepath.Join(b.env.work, "sweep")
	// Open (and so create) one store up front, so the first timed pass
	// does not pay for creating the work directory.
	st, err := store.Open(b.storePath())
	if err != nil {
		return err
	}
	return st.Close()
}

func (b *sweepBody) storePath() string {
	return filepath.Join(b.dir, fmt.Sprintf("pass-%d", b.pass))
}

// sweepStats is what one sweep loop measured.
type sweepStats struct {
	// passPoints and passMinstr are each cold pass's points and requested
	// instructions per host second of that pass; speeds are the
	// reference kernel's samples, refPerPass before every cold pass.
	passPoints []float64
	passMinstr []float64
	speeds     []float64
	instrs     float64 // requested instructions of every cold pass
	seconds    float64 // host time of every cold pass
	points     int
	resumeS    []float64
	storeBytes []float64
	resumed    int
	evals      int // evaluations of the resume passes
	runs       uint64
	cacheHits  uint64
	lookups    uint64
	failed     int
	problems   []string
}

// run repeats cold+resume passes until the deadline, finishing the pass
// in flight.
func (b *sweepBody) run(ctx context.Context, d time.Duration, tr *tracer) sweepStats {
	var st sweepStats
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if err := b.onePass(ctx, tr, &st); err != nil {
			st.failed++
			st.problems = append(st.problems, fmt.Sprintf("sweep pass %d: %v", b.pass, err))
		}
		b.pass++
	}
	return st
}

// explore opens the store at path and runs the sweep on a fresh Suite
// and Engine against it, under one traced group.
func (b *sweepBody) explore(ctx context.Context, tr *tracer, group, path string) (*explore.Result, *sim.Suite, error) {
	_, end := tr.begin("store.open", group, 0)
	st, err := store.Open(path)
	end()
	if err != nil {
		return nil, nil, err
	}
	suite := sim.NewSuite(b.env.simOptions()).WithStore(st)
	id, end := tr.begin("explore.run", group, 0)
	res, err := explore.New(suite).WithStore(st).Run(telemetry.WithSpan(ctx, tr.hook(group, id)), b.spec, nil)
	end()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return res, suite, err
}

// onePass runs one cold pass into a fresh store and its resume pass
// against that store, and checks both.
func (b *sweepBody) onePass(ctx context.Context, tr *tracer, st *sweepStats) error {
	path := b.storePath()
	defer os.RemoveAll(path)
	group := fmt.Sprintf("sweep-%d", b.pass)

	for i := 0; i < refPerPass; i++ {
		st.speeds = append(st.speeds, b.env.ref.speed())
	}
	cold := time.Now()
	res, suite, err := b.explore(ctx, tr, group, path)
	if err != nil {
		return err
	}
	el := time.Since(cold).Seconds()
	sims := suite.Results()
	instrs := float64(uint64(len(sims)) * (b.spec.WarmupInstrs + b.spec.MeasureInstrs))
	st.passPoints = append(st.passPoints, float64(len(res.Evals))/el)
	st.passMinstr = append(st.passMinstr, instrs/el/1e6)
	st.instrs += instrs
	st.seconds += el
	st.points += len(res.Evals)
	st.runs += suite.Runs()
	st.cacheHits += suite.CacheHits()
	st.lookups += suite.CacheHits() + suite.CacheMisses() + suite.DedupWaits()
	if got, want := sweepDigest(res, sims), b.env.golden.sweep(b.env.sc.Name); got != want {
		return fmt.Errorf("cold pass digest %s, recorded %s", got, want)
	}
	st.storeBytes = append(st.storeBytes, dirBytes(path))

	// A resume pass takes about a millisecond, so each cold pass is
	// resumed several times, each on a fresh Suite and Engine.
	want := evalDigest(res)
	for i := 0; i < resumesPerPass; i++ {
		resume := time.Now()
		again, rsuite, err := b.explore(ctx, tr, fmt.Sprintf("%s-resume-%d", group, i), path)
		if err != nil {
			return err
		}
		st.resumeS = append(st.resumeS, time.Since(resume).Seconds())
		st.resumed += again.Resumed
		st.evals += len(again.Evals)
		st.cacheHits += rsuite.CacheHits()
		st.lookups += rsuite.CacheHits() + rsuite.CacheMisses() + rsuite.DedupWaits()
		if n := rsuite.Runs(); n != 0 || again.Executed != 0 {
			return fmt.Errorf("resume pass re-simulated %d runs and %d evaluations", n, again.Executed)
		}
		if evalDigest(again) != want {
			return fmt.Errorf("resume pass evaluations differ from the cold pass")
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n)
}
