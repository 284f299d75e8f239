package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fu"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// probeSet is what the component, core and Suite probes run on: a
// workload's own machines, profiles and run lengths.
type probeSet struct {
	machines []config.Machine
	profiles []trace.Profile
	opt      sim.Options
}

// probeSetFor picks each workload's own inputs: the campaign rotation's
// machines and workloads, the sweep's grid workloads, and the serve
// stream's most popular keys.
func probeSetFor(e *env, wl string) (probeSet, error) {
	var ms, ps []string
	var opt sim.Options
	switch wl {
	case "campaign":
		for _, c := range campaignConfigs {
			ms, ps = appendNew(ms, c.Machine), appendNew(ps, c.Benchmark)
		}
		opt = sim.Options{WarmupInstrs: e.sc.CampWarmup, MeasureInstrs: e.sc.CampMeasure}
	case "sweep":
		for _, m := range detectionModes {
			ms = append(ms, m.Spec)
		}
		ps = sweepBenchmarks
		opt = sim.Options{WarmupInstrs: e.sc.SweepWarmup, MeasureInstrs: e.sc.SweepMeasure}
	case "serve":
		keys, err := serveKeys()
		if err != nil {
			return probeSet{}, err
		}
		for _, k := range keys[:4] {
			ms, ps = appendNew(ms, k.Machine), appendNew(ps, k.Benchmark)
		}
		opt = sim.Options{WarmupInstrs: e.sc.ServeWarmup, MeasureInstrs: e.sc.ServeMeasure}
	}
	var set probeSet
	for _, n := range ms {
		m, err := config.ByName(n)
		if err != nil {
			return probeSet{}, err
		}
		set.machines = append(set.machines, m)
	}
	for _, n := range ps {
		p, err := workload.ByName(n)
		if err != nil {
			return probeSet{}, err
		}
		set.profiles = append(set.profiles, p)
	}
	opt.Parallelism = 1
	set.opt = opt
	return set, nil
}

func appendNew(xs []string, x string) []string {
	for _, y := range xs {
		if y == x {
			return xs
		}
	}
	return append(xs, x)
}

// nsPer is the mean nanoseconds per operation.
func nsPer(d time.Duration, ops int) float64 { return ratio(float64(d.Nanoseconds()), float64(ops)) }

// componentProbes times the components standalone on the set's
// profiles: n instructions of trace generation, and the branch
// predictor, cache hierarchy and FU pool of the set's first machine
// driven by those instructions.
func componentProbes(set probeSet, n int, out *metrics) {
	m := set.machines[0]
	var (
		nextD, cloneD, predD, loadD, fuD   time.Duration
		nexts, clones, preds, loads, issue int
	)
	for _, p := range set.profiles {
		g := trace.New(p)
		insts := make([]isa.Inst, n)
		t := time.Now()
		for i := range insts {
			insts[i] = g.Next()
		}
		nextD += time.Since(t)
		nexts += n

		const k = 64
		t = time.Now()
		for i := 0; i < k; i++ {
			_ = g.CloneSource()
		}
		cloneD += time.Since(t)
		clones += k

		pred := bpred.NewCombining(m.Bpred)
		t = time.Now()
		for i := range insts {
			if in := &insts[i]; in.BranchKind != isa.BranchNone {
				pred.PredictInst(in)
				pred.UpdateInst(in)
				preds++
			}
		}
		predD += time.Since(t)

		h := cache.NewHierarchy(m.Mem)
		var now int64
		t = time.Now()
		for i := range insts {
			if insts[i].IsLoad() {
				now++
				h.BeginCycle(now)
				h.Load(now, insts[i].Addr)
				loads++
			}
		}
		loadD += time.Since(t)

		pool := fu.NewPool(m.FU)
		now = 0
		t = time.Now()
		for i := range insts {
			now++
			pool.BeginCycle(now)
			pool.TryIssue(now, insts[i].Class)
		}
		fuD += time.Since(t)
		issue += n
	}
	out.add("trace.next_ns", nsPer(nextD, nexts), "ns", fmt.Sprintf("n=%d instructions", nexts))
	out.add("trace.clone_us", nsPer(cloneD, clones)/1e3, "us", fmt.Sprintf("n=%d clones", clones))
	out.add("bpred.predict_update_ns", nsPer(predD, preds), "ns", fmt.Sprintf("n=%d branches", preds))
	out.add("cache.load_ns", nsPer(loadD, loads), "ns", fmt.Sprintf("n=%d loads", loads))
	out.add("fu.try_issue_ns", nsPer(fuD, issue), "ns", fmt.Sprintf("n=%d issues", issue))
}

// coreProbes runs every detection mode's engine for n instructions after
// the set's warmup on each profile, and times checkpoint capture and
// restore on the set's first machine.
func coreProbes(set probeSet, n uint64, out *metrics) error {
	for _, mode := range detectionModes {
		m, err := config.ByName(mode.Spec)
		if err != nil {
			return err
		}
		var d time.Duration
		var retired uint64
		var cycles, skipped int64
		for _, p := range set.profiles {
			e := core.New(m, trace.New(p))
			if err := e.Warmup(set.opt.WarmupInstrs); err != nil {
				return err
			}
			sk := e.SkippedCycles()
			t := time.Now()
			st, err := e.Run(n)
			d += time.Since(t)
			if err != nil {
				return err
			}
			retired += st.Retired
			cycles += st.Cycles
			skipped += e.SkippedCycles() - sk
		}
		out.add("core.ns_per_instr."+mode.Label, nsPer(d, int(retired)), "ns", fmt.Sprintf("n=%d instructions", retired))
		out.add("core.skip_frac."+mode.Label, ratio(float64(skipped), float64(cycles)), "ratio",
			fmt.Sprintf("%d skipped of %d cycles", skipped, cycles))
	}

	const k = 16
	var cpD, rsD time.Duration
	var ops int
	for _, p := range set.profiles {
		e := core.New(set.machines[0], trace.New(p))
		if err := e.Warmup(set.opt.WarmupInstrs); err != nil {
			return err
		}
		var cp *core.Checkpoint
		t := time.Now()
		for i := 0; i < k; i++ {
			var err error
			if cp, err = e.Checkpoint(); err != nil {
				return err
			}
		}
		cpD += time.Since(t)
		t = time.Now()
		for i := 0; i < k; i++ {
			e.Restore(cp)
		}
		rsD += time.Since(t)
		ops += k
	}
	out.add("core.checkpoint_us", nsPer(cpD, ops)/1e3, "us", fmt.Sprintf("n=%d captures", ops))
	out.add("core.restore_us", nsPer(rsD, ops)/1e3, "us", fmt.Sprintf("n=%d restores", ops))
	return nil
}

// suiteProbes times one cold Suite run, in-memory cache hits, and a
// store hit on a fresh Suite, over the set's first machine and profile.
func suiteProbes(ctx context.Context, set probeSet, dir string, out *metrics) error {
	m, p := set.machines[0], set.profiles[0]
	st, err := store.Open(filepath.Join(dir, "probe-store"))
	if err != nil {
		return err
	}
	defer st.Close()
	s := sim.NewSuite(set.opt).WithStore(st)
	t := time.Now()
	if _, err := s.GetOpt(ctx, m, p, set.opt); err != nil {
		return err
	}
	out.add("sim.cold_ms", float64(time.Since(t).Nanoseconds())/1e6, "ms", "n=1 run")

	const hits = 1000
	t = time.Now()
	for i := 0; i < hits; i++ {
		if _, err := s.GetOpt(ctx, m, p, set.opt); err != nil {
			return err
		}
	}
	out.add("sim.hit_us", nsPer(time.Since(t), hits)/1e3, "us", fmt.Sprintf("n=%d hits", hits))

	const fetches = 16
	var d time.Duration
	for i := 0; i < fetches; i++ {
		fresh := sim.NewSuite(set.opt).WithStore(st)
		t = time.Now()
		if _, err := fresh.GetOpt(ctx, m, p, set.opt); err != nil {
			return err
		}
		d += time.Since(t)
		if fresh.StoreHits() != 1 {
			return fmt.Errorf("store probe: fresh Suite missed the store")
		}
	}
	out.add("sim.store_hit_us", nsPer(d, fetches)/1e3, "us", fmt.Sprintf("n=%d store hits", fetches))
	return nil
}
