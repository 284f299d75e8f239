package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// campaignConfig is one campaign of the campaign workload's rotation.
type campaignConfig struct {
	Machine, Benchmark, Recovery string
}

// campaignConfigs is the rotation: detection-only campaigns on a
// memory-bound and a cache-resident workload for two detection modes, and
// one MEEK campaign under checkpoint/rollback recovery.
var campaignConfigs = []campaignConfig{
	{"shrec", "swim", ""},
	{"shrec", "crafty", ""},
	{"ss2+s", "swim", ""},
	{"ss2+s", "crafty", ""},
	{"meek@2", "crafty", "ckpt@16k+depth2"},
}

// campaignRate is the per-instruction fault rate of every campaign.
const campaignRate = 1e-4

// campaignSpec is rotation entry c for input variant v: the master seed
// is a fork of the variant, so the variant fixes every fault site.
func campaignSpec(sc scale, v, c int) campaign.Spec {
	cc := campaignConfigs[c]
	return campaign.Spec{
		Machine: cc.Machine, Benchmark: cc.Benchmark, Recovery: cc.Recovery,
		Trials: sc.CampTrials, FaultRate: campaignRate,
		Seed:         rng.New(uint64(v) + 1).Fork(uint64(c) + 1).Uint64(),
		WarmupInstrs: sc.CampWarmup, MeasureInstrs: sc.CampMeasure,
	}
}

// campaignDigest identifies a campaign's deterministic outcome: the
// outcome counts, every trial record, and the golden run's counters.
func campaignDigest(res *campaign.Result) string {
	return digestJSON(struct {
		Counts campaign.Counts
		Trials []campaign.Trial
		Golden any
	}{res.Counts(), res.Trials, res.Golden.Stats})
}

// campaignBody runs back-to-back in-process campaigns in a closed loop,
// in rounds of the whole rotation. Each campaign runs on a fresh Suite,
// so no campaign reuses another's simulations.
type campaignBody struct {
	env *env
}

func (b *campaignBody) setup() error {
	for c := range campaignConfigs {
		if _, err := campaign.Normalize(campaignSpec(b.env.sc, b.env.variant, c), b.env.simOptions()); err != nil {
			return err
		}
	}
	return nil
}

// campaignStats is what one campaign loop measured.
type campaignStats struct {
	// roundTrials and roundMinstr are each round's trials and requested
	// instructions per host second of that round; speeds are the
	// reference kernel's samples, one before every campaign.
	roundTrials  []float64
	roundMinstr  []float64
	speeds       []float64
	instrs       float64 // requested instructions of every round
	seconds      float64 // host time of every round
	campaigns    int
	trials       int
	faulted      int
	runs         uint64
	warmupShares uint64
	cacheHits    uint64
	lookups      uint64
	rollbacks    uint64
	failed       int
	problems     []string
}

// run starts rounds until the deadline and finishes the round in flight,
// so every round carries the same mix of campaigns. The host's speed is
// sampled before every campaign, outside the timed spans.
func (b *campaignBody) run(ctx context.Context, d time.Duration, tr *tracer) campaignStats {
	var st campaignStats
	deadline := time.Now().Add(d)
	for k := 0; time.Now().Before(deadline); {
		var trials int
		var instrs uint64
		var el float64
		for c := range campaignConfigs {
			st.speeds = append(st.speeds, b.env.ref.speed())
			start := time.Now()
			n, in := b.one(ctx, k, c, tr, &st)
			el += time.Since(start).Seconds()
			trials += n
			instrs += in
			k++
		}
		st.roundTrials = append(st.roundTrials, float64(trials)/el)
		st.roundMinstr = append(st.roundMinstr, float64(instrs)/el/1e6)
		st.instrs += float64(instrs)
		st.seconds += el
	}
	return st
}

// one runs campaign k (rotation entry c), checks its digest, and returns
// its trial count and requested instructions. Round r runs input variant
// seed+r, so a run's rounds cover many fault-site draws and the round
// median does not rest on one variant's share of costly faults.
func (b *campaignBody) one(ctx context.Context, k, c int, tr *tracer, st *campaignStats) (int, uint64) {
	v := (b.env.variant + k/len(campaignConfigs)) % variants
	spec := campaignSpec(b.env.sc, v, c)
	suite := sim.NewSuite(b.env.simOptions())
	group := fmt.Sprintf("campaign-%d", k)
	id, end := tr.begin("campaign.run", group, 0)
	res, err := campaign.New(suite).Run(telemetry.WithSpan(ctx, tr.hook(group, id)), spec, nil)
	end()
	st.campaigns++
	st.runs += suite.Runs()
	st.warmupShares += suite.WarmupShares()
	st.cacheHits += suite.CacheHits()
	st.lookups += suite.CacheHits() + suite.CacheMisses() + suite.DedupWaits()
	st.rollbacks += suite.Rollbacks()
	if err != nil {
		st.failed++
		st.problems = append(st.problems, fmt.Sprintf("campaign %d: %v", k, err))
		return 0, 0
	}
	if got, want := campaignDigest(res), b.env.golden.campaign(b.env.sc.Name, v, c); got != want {
		st.failed++
		st.problems = append(st.problems, fmt.Sprintf(
			"campaign %d (%s/%s) digest %s, recorded %s", k, spec.Machine, spec.Benchmark, got, want))
	}
	st.trials += len(res.Trials)
	st.faulted += res.Counts().Faulted()
	return len(res.Trials), uint64(len(res.Trials)+1) * (spec.WarmupInstrs + spec.MeasureInstrs)
}
