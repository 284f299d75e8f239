package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/recovery"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ladderMachines is one representative of every execution mode, the same
// twelve the core conformance suite covers.
func ladderMachines() []config.Machine {
	return []config.Machine{
		config.SS1(),
		config.SS2(config.Factors{}),
		config.SS2(config.Factors{S: true}),
		config.SHREC(),
		config.DIVA(),
		config.O3RS(),
		config.MEEK(2),
		config.MEEK(4),
		config.SHREC().WithContexts(4),
		config.DIVA().WithContexts(2),
		config.FlexMachine(512, 128),
		config.FLEX(),
	}
}

// resultJSON is the byte form results are compared in: every field,
// including the recovery trace.
func resultJSON(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// trialMachine is m injecting at rate with seed inside [lo, hi).
func trialMachine(m config.Machine, rate float64, seed, lo, hi uint64) config.Machine {
	m.FaultRate, m.FaultSeed = rate, seed
	m.FaultWindowLo, m.FaultWindowHi = lo, hi
	return m
}

// checkLadderTrial requires the suite's (ladder-served) result for m to
// be byte-identical to a cold RunContext.
func checkLadderTrial(t *testing.T, s *Suite, m config.Machine, p trace.Profile, opt Options) Result {
	t.Helper()
	ctx := context.Background()
	got, err := s.GetOpt(ctx, m, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunContext(ctx, m, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := resultJSON(t, got), resultJSON(t, want); !bytes.Equal(g, w) {
		t.Fatalf("seed %d window [%d,%d): ladder trial diverged from cold run\nladder: %s\ncold:   %s",
			m.FaultSeed, m.FaultWindowLo, m.FaultWindowHi, g, w)
	}
	return got
}

// TestLadderMatchesColdRuns is the ladder's differential suite: across
// every mode, several seeds and windows that open at the measure start,
// mid-measure, and close before its end, each ladder-served trial equals
// its cold run byte for byte, and the ladder really skips work — some
// trials resume past rung 0 and some never inject — and trials read past
// the end of the ladder's instruction tape.
func TestLadderMatchesColdRuns(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmupInstrs: 3000, MeasureInstrs: 8000, Parallelism: 1}
	const lo0 = 3000 + 512 // past the warmup's fetch frontier
	windows := [][2]uint64{{lo0, 0}, {6000, 0}, {lo0, 9000}, {7000, 10000}}
	var clean, tail uint64
	for _, m := range ladderMachines() {
		t.Run(m.Name, func(t *testing.T) {
			s := NewSuite(opt)
			trials := 0
			for _, w := range windows {
				for seed := uint64(1); seed <= 3; seed++ {
					checkLadderTrial(t, s, trialMachine(m, 3e-4, seed, w[0], w[1]), p, opt)
					trials++
				}
			}
			if got := s.WarmupShares(); got != uint64(trials) {
				t.Errorf("WarmupShares = %d, want %d (every trial is ladder-served)", got, trials)
			}
			if s.LadderResumes() == 0 || s.SkippedInstrs() == 0 {
				t.Errorf("resumes %d, skipped %d instructions: the ladder skipped no work",
					s.LadderResumes(), s.SkippedInstrs())
			}
			clean += s.CleanShortcuts()
			tail += s.TapeTailReads()
		})
	}
	if clean == 0 {
		t.Error("no trial took the clean shortcut")
	}
	if tail == 0 {
		t.Error("no trial read past its tape's sealed end")
	}
}

// TestLadderRecoveryMatchesColdRuns covers recovery trials: with an
// interval shorter than the measured region, rollbacks target mid-run
// captures the resumed trial inherits from the ladder's ring, and the
// whole Result — trace included — still equals the cold run's.
func TestLadderRecoveryMatchesColdRuns(t *testing.T) {
	p, err := workload.ByName("gcc-166")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmupInstrs: 3000, MeasureInstrs: 8000, Parallelism: 1}
	policies := []struct {
		interval uint64
		depth    int
	}{{1000, 1}, {1500, 2}, {3000, 3}}
	machines := []config.Machine{config.SHREC(), config.SS2(config.Factors{S: true}), config.MEEK(2), config.O3RS()}
	if testing.Short() {
		machines = machines[:2]
	}
	for i, base := range machines {
		for _, pol := range policies {
			m := base.WithCkptInterval(pol.interval).WithCkptDepth(pol.depth)
			t.Run(m.Name, func(t *testing.T) {
				s := NewSuite(opt)
				rollbacks := uint64(0)
				for seed := uint64(1); seed <= 3; seed++ {
					r := checkLadderTrial(t, s, trialMachine(m, 2e-4, seed+uint64(i), 3600, 0), p, opt)
					rollbacks += r.Recovery.Rollbacks
				}
				if rollbacks == 0 {
					t.Error("no trial rolled back; the policy exercised nothing")
				}
				if s.LadderResumes() == 0 {
					t.Error("no trial resumed past rung 0")
				}
			})
		}
	}
}

// TestLadderHungTrialsMatchColdRuns gives trials tiny cycle budgets, so
// trials hang and return partial counters. Below the fault-free run's
// cycles the ladder serves only from rung 0; at exactly the fault-free
// run's cycles, trials resume mid-run and every trial a fault slows down
// hangs there. Either way the partial counters match the cold run's.
func TestLadderHungTrialsMatchColdRuns(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, m := range []config.Machine{config.SHREC(), config.SS2(config.Factors{}), config.MEEK(2).WithCkptInterval(1000)} {
		opt := Options{WarmupInstrs: 3000, MeasureInstrs: 8000, Parallelism: 1}
		golden, err := RunContext(ctx, m, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{500, 3000, golden.Stats.Cycles} {
			opt.MaxCycles = budget
			t.Run(fmt.Sprintf("%s/budget%d", m.Name, budget), func(t *testing.T) {
				s := NewSuite(opt)
				hung := 0
				for seed := uint64(1); seed <= 4; seed++ {
					if r := checkLadderTrial(t, s, trialMachine(m, 3e-4, seed, 3600, 0), p, opt); r.Hung {
						hung++
					}
				}
				if hung == 0 {
					t.Errorf("budget %d hung no trial", budget)
				}
				if resumed := s.LadderResumes() + s.CleanShortcuts(); (budget < golden.Stats.Cycles) != (resumed == 0) {
					t.Errorf("budget %d (fault-free run %d cycles): %d trials served past rung 0",
						budget, golden.Stats.Cycles, resumed)
				}
			})
		}
	}
}

// TestLadderRefusesWindowInWarmup pins the soundness guard: a window that
// opens before rung 0's fetch frontier — inside the warmup tail — may need
// fault randomness the ladder never recorded, so the trial runs cold.
func TestLadderRefusesWindowInWarmup(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmupInstrs: 3000, MeasureInstrs: 6000}
	for _, lo := range []uint64{1000, 3000} {
		s := NewSuite(opt)
		checkLadderTrial(t, s, trialMachine(config.SHREC(), 1e-3, 5, lo, 0), p, opt)
		if got := s.WarmupShares(); got != 0 {
			t.Errorf("window at %d: WarmupShares = %d, want 0", lo, got)
		}
	}
}

// TestLadderCacheEvictionChangesNothing cycles more ladder keys than the
// cache holds, then revisits the first: the rebuilt ladder serves the
// same results as the evicted one did.
func TestLadderCacheEvictionChangesNothing(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmupInstrs: 2000, MeasureInstrs: 4000, Parallelism: 1}
	s := NewSuite(opt)
	ctx := context.Background()
	first := make(map[int][]byte)
	for round := 0; round < 2; round++ {
		for k := 0; k <= maxLadders; k++ {
			o := opt
			o.MeasureInstrs += uint64(k) * 500 // a distinct ladder key each
			m := trialMachine(config.SHREC(), 5e-4, uint64(round+1), 2600, 0)
			r, err := s.GetOpt(ctx, m, p, o)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[k] = resultJSON(t, r)
				continue
			}
			// Re-request the first round's trial through a fresh result
			// cache but the same (by now rebuilt) ladder cache.
			m.FaultSeed = 1
			s.clearResults()
			again, err := s.GetOpt(ctx, m, p, o)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resultJSON(t, again), first[k]) {
				t.Errorf("key %d: result changed after ladder eviction and rebuild", k)
			}
		}
	}
	s.ladderMu.Lock()
	n := len(s.ladders)
	s.ladderMu.Unlock()
	if n > maxLadders {
		t.Errorf("ladder cache holds %d ladders, cap %d", n, maxLadders)
	}
}

// clearResults empties the in-memory result cache (test helper).
func (s *Suite) clearResults() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		clear(sh.results)
		sh.mu.Unlock()
	}
}

// TestLadderConcurrentTrials fans trials out over one suite the way a
// campaign does — one of them building the ladder while the rest wait,
// then several resuming the same rungs and sharing one recovery ring at
// once — and requires every result to equal its cold run. Run it under
// -race.
func TestLadderConcurrentTrials(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{WarmupInstrs: 3000, MeasureInstrs: 6000, Parallelism: 4}
	for _, m := range []config.Machine{config.SHREC(), config.MEEK(2).WithCkptInterval(1000).WithCkptDepth(2)} {
		t.Run(m.Name, func(t *testing.T) {
			s := NewSuite(opt)
			ctx := context.Background()
			const trials = 8
			got := make([]Result, trials)
			errs := make([]error, trials)
			var wg sync.WaitGroup
			wg.Add(trials)
			for i := 0; i < trials; i++ {
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = s.GetOpt(ctx, trialMachine(m, 3e-4, uint64(i+1), 3600, 0), p, opt)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("goroutine %d: %v", i, err)
				}
			}
			for i := 0; i < trials; i++ {
				want, err := RunContext(ctx, trialMachine(m, 3e-4, uint64(i+1), 3600, 0), p, opt)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := resultJSON(t, got[i]), resultJSON(t, want); !bytes.Equal(g, w) {
					t.Errorf("trial %d diverged from its cold run\nladder: %s\ncold:   %s", i, g, w)
				}
			}
			if s.WarmupShares() != trials {
				t.Errorf("WarmupShares = %d, want %d", s.WarmupShares(), trials)
			}
		})
	}
}

// TestLadderGoldenMatchesColdRuns pins the golden run served from a
// ladder's fault-free pass: across every mode, and under a checkpoint
// recovery policy, Golden's Result equals RunContext's byte for byte, is
// one counted run, and leaves its ladder to the trials — a trial over
// the same run builds no second one, and a repeated Golden is a cache
// hit.
func TestLadderGoldenMatchesColdRuns(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	pol, err := recovery.ParseMode("ckpt@1500+depth2")
	if err != nil {
		t.Fatal(err)
	}
	machines := ladderMachines()
	machines = append(machines, pol.Apply(config.SHREC()), pol.Apply(config.MEEK(2)))
	opt := Options{WarmupInstrs: 3000, MeasureInstrs: 8000, Parallelism: 1}
	ctx := context.Background()
	for _, m := range machines {
		t.Run(m.Name, func(t *testing.T) {
			s := NewSuite(opt)
			got, err := s.Golden(ctx, m, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunContext(ctx, m, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultJSON(t, got), resultJSON(t, want); !bytes.Equal(g, w) {
				t.Fatalf("ladder golden diverged from cold run\nladder: %s\ncold:   %s", g, w)
			}
			if s.LadderGoldens() != 1 || s.Runs() != 1 {
				t.Errorf("LadderGoldens %d, Runs %d; want 1, 1", s.LadderGoldens(), s.Runs())
			}
			checkLadderTrial(t, s, trialMachine(m, 3e-4, 1, 3000+512, 0), p, opt)
			if n := len(s.ladders); n != 1 {
				t.Errorf("golden and trial hold %d ladders, want 1", n)
			}
			again, err := s.Golden(ctx, m, p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resultJSON(t, again), resultJSON(t, got)) || s.CacheHits() != 1 || s.LadderGoldens() != 1 {
				t.Errorf("repeated golden: cache hits %d, ladder goldens %d", s.CacheHits(), s.LadderGoldens())
			}
		})
	}
}

// TestLadderGoldenFallsBack pins the cases a ladder cannot stand in for:
// a machine that injects faults itself, no warmup to share,
// interval-parallel runs, and a cycle budget the fault-free run exceeds.
// Each Golden equals RunContext and builds no ladder.
func TestLadderGoldenFallsBack(t *testing.T) {
	p, err := workload.ByName("parser")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{WarmupInstrs: 3000, MeasureInstrs: 8000, Parallelism: 1}
	noWarm, split, tight := base, base, base
	noWarm.WarmupInstrs = 0
	split.Intervals = 2
	tight.MaxCycles = 500
	cases := []struct {
		name string
		m    config.Machine
		opt  Options
	}{
		{"faulty", config.SHREC().WithFaultRate(1e-3), base},
		{"no-warmup", config.SHREC(), noWarm},
		{"intervals", config.SHREC(), split},
		{"budget", config.SHREC(), tight},
	}
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := NewSuite(c.opt)
			got, err := s.Golden(ctx, c.m, p, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunContext(ctx, c.m, p, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultJSON(t, got), resultJSON(t, want); !bytes.Equal(g, w) {
				t.Fatalf("golden diverged from cold run\ngolden: %s\ncold:   %s", g, w)
			}
			if s.LadderGoldens() != 0 {
				t.Errorf("LadderGoldens = %d, want 0", s.LadderGoldens())
			}
		})
	}
}
