// Package sim drives simulations: it runs (machine, workload) pairs with
// cache/predictor warmup, caches results, parallelizes across cores, and
// aggregates IPCs the way the paper does (harmonic means over benchmark
// classes).
//
// The Suite is built for heavy concurrent use: its result cache is
// lock-striped across shards, duplicate in-flight requests for the same
// (machine, benchmark, options) key are coalesced into one underlying run
// (singleflight), every entry point accepts a context.Context for
// cancellation and deadlines, and results can be persisted across
// processes through an optional store.Store.
package sim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options controls simulation length.
type Options struct {
	// WarmupInstrs are executed before counters reset, hiding cold-start
	// effects (the paper measures SimPoint regions from mid-execution).
	WarmupInstrs uint64
	// MeasureInstrs are executed with counters enabled.
	MeasureInstrs uint64
	// Intervals, when > 1, splits the measured phase into that many
	// consecutive regions of the instruction stream, each simulated by an
	// independent engine (fresh microarchitectural state, own
	// WarmupInstrs warmup) and stitched back together in stream order.
	// The intervals are independent, so they run concurrently under
	// Parallelism — this is the interval-parallel mode. It is a sampled
	// estimator in the SimPoint tradition, not the contiguous run: each
	// interval re-warms instead of inheriting state, so results differ
	// slightly from Intervals <= 1 (which is the exact classic path) and
	// the two never share cache entries. Stitched results are fully
	// deterministic and independent of Parallelism. MaxCycles, when set,
	// is divided evenly across intervals.
	Intervals int
	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	// It does not affect results and is excluded from cache keys.
	Parallelism int
	// MaxCycles, when positive, is a hang watchdog on the measured phase:
	// a run that exceeds this many cycles before retiring MeasureInstrs
	// stops early and returns a Result with Hung set instead of an error.
	// Fault campaigns use it to classify recovery livelocks.
	MaxCycles int64
}

// intervalCount returns the effective interval count: 0 and 1 both select
// the classic contiguous run.
func (o Options) intervalCount() int {
	if o.Intervals > 1 {
		return o.Intervals
	}
	return 1
}

// parallelism returns the effective worker bound.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultOptions returns the experiment-scale run lengths.
func DefaultOptions() Options {
	return Options{WarmupInstrs: 500_000, MeasureInstrs: 1_000_000}
}

// QuickOptions returns short runs for smoke tests.
func QuickOptions() Options {
	return Options{WarmupInstrs: 30_000, MeasureInstrs: 100_000}
}

// Result is the outcome of one simulation.
type Result struct {
	// Benchmark is the workload's name ("swim", "gcc-166", ...).
	Benchmark string
	// Class is the workload's benchmark class (integer or floating point).
	Class trace.Class
	// HighIPC marks workloads the paper groups into its high-IPC
	// aggregate.
	HighIPC bool
	// Machine is the machine configuration's display name.
	Machine string
	// Options records the run lengths that produced this result, so rows
	// for the same (machine, benchmark) at different scales stay
	// distinguishable in listings.
	Options Options
	// Hung reports that the run exhausted Options.MaxCycles before
	// retiring the requested instructions; Stats then holds the partial
	// counters accumulated up to the watchdog.
	Hung bool
	// Stats holds the run's detailed performance counters. On a recovery
	// run they describe the committed timeline: rollbacks rewind the
	// counters along with the machine, so work discarded by recovery
	// appears only in the Recovery trace.
	Stats core.Stats
	// Recovery holds the checkpoint/rollback observables when the machine
	// has a checkpoint interval configured (see internal/recovery); nil
	// otherwise.
	Recovery *recovery.Trace `json:",omitempty"`
}

// IPC returns the run's instructions per cycle.
func (r Result) IPC() float64 { return r.Stats.IPC() }

// CPI returns the run's cycles per instruction.
func (r Result) CPI() float64 { return r.Stats.CPI() }

// Run simulates one machine on one workload.
func Run(m config.Machine, p trace.Profile, opt Options) (Result, error) {
	return RunContext(context.Background(), m, p, opt)
}

// RunContext simulates one machine on one workload, checking ctx for
// cancellation between engine step batches.
func RunContext(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	if opt.intervalCount() > 1 {
		if m.CkptInterval > 0 {
			// Rollback would need to cross interval boundaries that were
			// simulated independently; the combination is rejected rather
			// than silently approximated.
			return Result{}, fmt.Errorf("sim: %s: interval-parallel simulation cannot model checkpoint recovery", m.Name)
		}
		return runIntervals(ctx, m, p, opt)
	}
	e := core.New(m, trace.New(p))
	if opt.WarmupInstrs > 0 {
		if err := e.WarmupContext(ctx, opt.WarmupInstrs); err != nil {
			return Result{}, fmt.Errorf("sim: warmup: %w", err)
		}
	}
	st, tr, hung, err := measureOrRecover(ctx, e, m, opt.MeasureInstrs, opt.MaxCycles)
	if err != nil {
		return Result{}, err
	}
	return newResult(m, p, opt, st, tr, hung), nil
}

// measure runs the counted phase on a warmed engine and classifies a blown
// cycle budget as a hang rather than a driver failure: the partial
// counters return with hung set, so the result caches and persists like
// any other and a resumed campaign never re-simulates the hang.
func measure(ctx context.Context, e *core.Engine, n uint64, maxCycles int64) (core.Stats, bool, error) {
	st, err := e.RunBudget(ctx, n, maxCycles)
	if err != nil {
		if !errors.Is(err, core.ErrCycleBudget) {
			return core.Stats{}, false, fmt.Errorf("sim: %w", err)
		}
		return st, true, nil
	}
	return st, false, nil
}

// measureOrRecover is measure for machines with a checkpoint interval
// configured: the counted phase runs under recovery.Run, which wraps it in
// periodic checkpoints and rolls detected faults back. The returned trace
// is nil exactly when recovery is disabled.
func measureOrRecover(ctx context.Context, e *core.Engine, m config.Machine, n uint64, maxCycles int64) (core.Stats, *recovery.Trace, bool, error) {
	if m.CkptInterval == 0 {
		st, hung, err := measure(ctx, e, n, maxCycles)
		return st, nil, hung, err
	}
	st, tr, err := recovery.Run(ctx, e, n, maxCycles, m.CkptInterval, m.CkptDepth)
	if err != nil {
		if !errors.Is(err, core.ErrCycleBudget) {
			return core.Stats{}, nil, false, fmt.Errorf("sim: %w", err)
		}
		return st, &tr, true, nil
	}
	return st, &tr, false, nil
}

func newResult(m config.Machine, p trace.Profile, opt Options, st core.Stats, tr *recovery.Trace, hung bool) Result {
	return Result{
		Benchmark: p.Name,
		Class:     p.Class,
		HighIPC:   p.HighIPC,
		Machine:   m.Name,
		Options:   opt,
		Hung:      hung,
		Stats:     st,
		Recovery:  tr,
	}
}

// sigOffsetBasis seeds the interval-signature fold (the FNV-1a offset
// basis; the multiplier below is the FNV-1a prime).
const (
	sigOffsetBasis = 14695981039346656037
	sigPrime       = 1099511628211
)

// runIntervals is the interval-parallel simulation path: the measured
// phase splits into opt.Intervals consecutive regions of the instruction
// stream, each simulated by an independent engine over a fresh generator
// fast-skipped to the region start, warmed for WarmupInstrs, and measured
// for its share. Intervals run concurrently under opt.Parallelism, then
// stitch in stream order: counters via Stats.Add, architectural
// signatures via an order-sensitive fold, Hung by OR. Because intervals
// share no state, the stitched result is byte-identical no matter how
// many workers ran — the equivalence tests pin parallel == sequential.
func runIntervals(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, error) {
	k := opt.intervalCount()
	per := opt.MeasureInstrs / uint64(k)
	if per == 0 {
		return Result{}, fmt.Errorf("sim: %d intervals need at least %d measured instructions, have %d",
			k, k, opt.MeasureInstrs)
	}
	budget := opt.MaxCycles
	if budget > 0 {
		if budget /= int64(k); budget == 0 {
			budget = 1
		}
	}

	stats := make([]core.Stats, k)
	hungs := make([]bool, k)
	errs := make([]error, k)
	par := opt.parallelism()
	if par > k {
		par = k
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			n := per
			if i == k-1 {
				// The last interval absorbs the division remainder so the
				// stitched run measures exactly MeasureInstrs.
				n = opt.MeasureInstrs - per*uint64(k-1)
			}
			stats[i], hungs[i], errs[i] = runInterval(ctx, m, p, uint64(i)*per, opt.WarmupInstrs, n, budget)
		}(i)
	}
	wg.Wait()

	var agg core.Stats
	sig := uint64(sigOffsetBasis)
	hung := false
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			return Result{}, fmt.Errorf("sim: interval %d of %d: %w", i, k, errs[i])
		}
		agg.Add(stats[i])
		sig = (sig ^ stats[i].ArchSig) * sigPrime
		hung = hung || hungs[i]
	}
	agg.ArchSig = sig
	return newResult(m, p, opt, agg, nil, hung), nil
}

// runInterval simulates one region: fast-skip the generator to the region
// start, warm, measure.
func runInterval(ctx context.Context, m config.Machine, p trace.Profile, skip, warm, n uint64, budget int64) (core.Stats, bool, error) {
	src := trace.New(p)
	for j := uint64(0); j < skip; j++ {
		src.Next()
		if j&0xffff == 0xffff && ctx.Err() != nil {
			return core.Stats{}, false, ctx.Err()
		}
	}
	e := core.New(m, src)
	if warm > 0 {
		if err := e.WarmupContext(ctx, warm); err != nil {
			return core.Stats{}, false, fmt.Errorf("sim: warmup: %w", err)
		}
	}
	return measure(ctx, e, n, budget)
}

// numShards stripes the result cache. A modest power of two keeps the
// striping cheap while making lock contention negligible even with
// hundreds of concurrent callers.
const numShards = 32

// call is one in-flight simulation shared by every caller that requested
// the same key while it ran (singleflight).
type call struct {
	done chan struct{} // closed when res/err are valid
	res  Result
	err  error
}

// shard is one stripe of the result cache.
type shard struct {
	mu       sync.Mutex
	results  map[string]Result
	inflight map[string]*call
}

// Suite runs and memoizes simulations so experiments that share
// configurations (for example Table 2 and Figures 3/4) reuse results.
// All methods are safe for concurrent use.
type Suite struct {
	opt    Options
	shards [numShards]shard
	sem    chan struct{} // bounds concurrently executing simulations

	disk *store.Store // optional cross-process persistence (nil = off)

	// ladders caches golden checkpoint ladders shared across fault-campaign
	// trials, most recently used first and at most maxLadders of them:
	// trials differ only in FaultSeed and window, and fault eligibility
	// consults the window before drawing randomness, so every trial whose
	// window starts after the warmup resumes the fault-free run at the
	// last rung before its first injection, reading the instruction tape
	// that run recorded (see ladder.go). The campaign's golden run is
	// that fault-free run (Golden).
	ladderMu sync.Mutex
	ladders  []*ladderEntry

	runs           atomic.Uint64 // underlying simulations actually executed
	cacheHits      atomic.Uint64 // requests served from the in-memory striped cache
	cacheMiss      atomic.Uint64 // requests that found neither a result nor an in-flight run
	dedupWaits     atomic.Uint64 // requests served by joining an in-flight duplicate run
	storeHits      atomic.Uint64 // cache misses served from the persistent store
	storeErrs      atomic.Uint64 // failed persistent-store writes (results still served)
	warmupShares   atomic.Uint64 // runs served from a golden ladder (rung 0 or later)
	ladderResumes  atomic.Uint64 // ladder runs resumed past rung 0
	cleanShortcuts atomic.Uint64 // ladder runs that never inject, served without an engine
	skippedInstrs  atomic.Uint64 // measured instructions ladder runs did not re-simulate
	ladderGoldens  atomic.Uint64 // golden runs served from a ladder's fault-free pass
	tapeTailReads  atomic.Uint64 // instructions ladder runs read past their tape's sealed end
	intervalRuns   atomic.Uint64 // executed runs that used the interval-parallel path
	recoveryRuns   atomic.Uint64 // executed runs simulated under checkpoint recovery
	rollbacks      atomic.Uint64 // total rollbacks across all recovery runs

	// stages, when telemetry is attached, holds the sim_stage_seconds{stage}
	// histogram family. All stage timing rides run boundaries — cache
	// lookups, store round-trips, whole engine runs — never the cycle
	// loop, so the engine core stays allocation-free.
	stages *telemetry.HistogramVec
}

// NewSuite builds a suite with the given options.
func NewSuite(opt Options) *Suite {
	if opt.Parallelism <= 0 {
		opt.Parallelism = runtime.GOMAXPROCS(0)
	}
	s := &Suite{opt: opt, sem: make(chan struct{}, opt.Parallelism)}
	for i := range s.shards {
		s.shards[i].results = make(map[string]Result)
		s.shards[i].inflight = make(map[string]*call)
	}
	return s
}

// WithStore attaches a persistent result store: cache misses consult the
// store before simulating, and fresh results are written back, so repeated
// experiment runs reuse results across processes. Returns s for chaining.
func (s *Suite) WithStore(st *store.Store) *Suite {
	s.disk = st
	return s
}

// WithTelemetry attaches a metrics registry: the suite registers
// sim_stage_seconds{stage} and times each pipeline stage into it —
// cache_lookup, dedup_wait, store_fetch, store_write, ladder_build,
// warmup_share, engine_run, and (via the context observer threaded into
// recovery) recovery_rollback. Returns s for chaining.
func (s *Suite) WithTelemetry(reg *telemetry.Registry) *Suite {
	s.stages = reg.HistogramVec("sim_stage_seconds",
		"Simulation pipeline stage durations: cache_lookup, dedup_wait, store_fetch, store_write, ladder_build, warmup_share, engine_run, recovery_rollback.",
		telemetry.DefTimeBuckets(), "stage")
	return s
}

// StageSnapshots returns the per-stage histogram snapshots (nil when no
// telemetry is attached), for facades that summarize stage timing.
func (s *Suite) StageSnapshots() []telemetry.LabeledHistogram {
	if s.stages == nil {
		return nil
	}
	return s.stages.Snapshots()
}

// observeStage records one stage duration into the registry histogram
// (when telemetry is attached) and the context's span (when one rides the
// request), so job status JSON and /metrics see the same timings.
func (s *Suite) observeStage(ctx context.Context, stage string, start time.Time) {
	d := time.Since(start)
	if s.stages != nil {
		s.stages.With(stage).Observe(d.Seconds())
	}
	telemetry.SpanFrom(ctx).Record(stage, d)
}

// Options returns the suite's run options.
func (s *Suite) Options() Options { return s.opt }

// Runs reports how many simulations the suite actually executed (cache
// misses that were not deduplicated or served from disk).
func (s *Suite) Runs() uint64 { return s.runs.Load() }

// Hits reports how many requests were served without a fresh simulation:
// from the in-memory cache, the persistent store, or by joining an
// in-flight duplicate run.
func (s *Suite) Hits() uint64 {
	return s.cacheHits.Load() + s.dedupWaits.Load() + s.storeHits.Load()
}

// CacheHits reports requests served directly from the in-memory striped
// result cache.
func (s *Suite) CacheHits() uint64 { return s.cacheHits.Load() }

// CacheMisses reports requests that found neither a cached result nor an
// in-flight duplicate and went on to the store or a fresh simulation.
func (s *Suite) CacheMisses() uint64 { return s.cacheMiss.Load() }

// DedupWaits reports requests served by waiting on an in-flight duplicate
// run (singleflight coalescing) instead of executing their own.
func (s *Suite) DedupWaits() uint64 { return s.dedupWaits.Load() }

// StoreHits reports cache misses that were served from the persistent
// store rather than a fresh simulation.
func (s *Suite) StoreHits() uint64 { return s.storeHits.Load() }

// StoreErrors reports how many results failed to persist to the attached
// store (they were still computed and served from memory).
func (s *Suite) StoreErrors() uint64 { return s.storeErrs.Load() }

// WarmupShares reports how many simulations skipped their warmup by
// resuming a shared golden ladder at rung 0 or later (fault-campaign
// trials whose injection window starts after the warmup).
func (s *Suite) WarmupShares() uint64 { return s.warmupShares.Load() }

// LadderResumes reports how many ladder-served simulations resumed at a
// rung past the end of the warmup, skipping part of the measured run.
func (s *Suite) LadderResumes() uint64 { return s.ladderResumes.Load() }

// CleanShortcuts reports how many ladder-served simulations never inject a
// fault and took the fault-free run's outcome without simulating.
func (s *Suite) CleanShortcuts() uint64 { return s.cleanShortcuts.Load() }

// SkippedInstrs reports the measured instructions ladder-served
// simulations did not re-simulate: the rung's retired count for a resumed
// run, the whole measured run for a clean shortcut.
func (s *Suite) SkippedInstrs() uint64 { return s.skippedInstrs.Load() }

// LadderGoldens reports how many golden runs (Golden) were served from
// the fault-free pass of a ladder instead of a separate simulation.
func (s *Suite) LadderGoldens() uint64 { return s.ladderGoldens.Load() }

// TapeTailReads reports how many instructions ladder-served simulations
// read past the sealed end of their ladder's tape, from a private copy of
// its generator (faulty trials fetch further than the fault-free run).
func (s *Suite) TapeTailReads() uint64 { return s.tapeTailReads.Load() }

// IntervalRuns reports how many executed simulations took the
// interval-parallel path (Options.Intervals > 1).
func (s *Suite) IntervalRuns() uint64 { return s.intervalRuns.Load() }

// RecoveryRuns reports how many executed simulations ran under checkpoint
// recovery (a machine with CkptInterval set).
func (s *Suite) RecoveryRuns() uint64 { return s.recoveryRuns.Load() }

// Rollbacks reports the total rollbacks performed across every executed
// recovery run.
func (s *Suite) Rollbacks() uint64 { return s.rollbacks.Load() }

// key identifies one (machine, benchmark, options) simulation. Run
// lengths and the cycle budget are part of the key so one suite can serve
// requests at several scales (the shrecd server does) without conflating
// their results, and so are the machine's fault-injection and checkpoint
// fields: a campaign fans out hundreds of trials that differ only in
// FaultSeed and window (or only in recovery policy), which must not
// collide on the shared display name.
// The interval count is keyed through intervalCount, so 0 and 1 (both the
// classic contiguous run) share entries while sampled splits stay apart.
func key(m config.Machine, p trace.Profile, opt Options) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%d\x00%d\x00%g\x00%d\x00%d\x00%d\x00%d\x00%d\x00%d",
		m.Name, p.Name, opt.WarmupInstrs, opt.MeasureInstrs, opt.MaxCycles,
		m.FaultRate, m.FaultSeed, m.FaultWindowLo, m.FaultWindowHi,
		opt.intervalCount(), m.CkptInterval, m.CkptDepth)
}

func (s *Suite) shardFor(k string) *shard {
	h := fnv.New32a()
	h.Write([]byte(k))
	return &s.shards[h.Sum32()%numShards]
}

// digest builds the persistent-store key. Unlike the in-memory key it
// hashes the full machine configuration and workload profile, so renamed
// or edited configurations never collide across processes. Only the run
// lengths and cycle budget of the options participate: Parallelism does
// not affect results, and hashing it would make store lookups miss across
// machines with different core counts. The schema label is v5: v3
// results predate checkpoint recovery, v4 results predate the detection
// mode zoo — the hashed machine grew the lane/context/region fields and
// Stats grew the MEEK and FLEX counters, so v4 records would resolve to
// Results missing those fields.
func digest(m config.Machine, p trace.Profile, opt Options) string {
	return store.Digest("sim.Result.v5", m, p, opt.WarmupInstrs, opt.MeasureInstrs, opt.MaxCycles,
		opt.intervalCount())
}

// Get returns the cached result, running the simulation if needed.
func (s *Suite) Get(ctx context.Context, m config.Machine, p trace.Profile) (Result, error) {
	return s.GetOpt(ctx, m, p, s.opt)
}

// GetOpt is Get with per-call run lengths, used by servers that accept
// request-scoped options. Concurrent callers requesting the same
// (machine, benchmark, options) key share one underlying run.
func (s *Suite) GetOpt(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, error) {
	return s.get(ctx, m, p, opt, false)
}

// Golden is GetOpt for the fault-free run a fault campaign compares its
// trials against: same key, cache, store and singleflight, but a miss
// whose trials can share a golden ladder builds that ladder and takes the
// Result from its fault-free pass, so the campaign simulates that run
// once rather than twice (see ladder.go).
func (s *Suite) Golden(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, error) {
	return s.get(ctx, m, p, opt, true)
}

// get serves GetOpt and Golden.
func (s *Suite) get(ctx context.Context, m config.Machine, p trace.Profile, opt Options, golden bool) (Result, error) {
	k := key(m, p, opt)
	sh := s.shardFor(k)
	for {
		look := time.Now()
		sh.mu.Lock()
		if res, ok := sh.results[k]; ok {
			sh.mu.Unlock()
			s.observeStage(ctx, "cache_lookup", look)
			s.cacheHits.Add(1)
			return res, nil
		}
		if c, ok := sh.inflight[k]; ok {
			sh.mu.Unlock()
			s.observeStage(ctx, "cache_lookup", look)
			wait := time.Now()
			select {
			case <-c.done:
				s.observeStage(ctx, "dedup_wait", wait)
				if c.err == nil {
					s.dedupWaits.Add(1)
					return c.res, nil
				}
				// The owning caller was cancelled; if we are still live,
				// retry so our request is not poisoned by their deadline.
				if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
					if ctx.Err() != nil {
						return Result{}, ctx.Err()
					}
					continue
				}
				return Result{}, c.err
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
		c := &call{done: make(chan struct{})}
		sh.inflight[k] = c
		sh.mu.Unlock()
		s.observeStage(ctx, "cache_lookup", look)
		s.cacheMiss.Add(1)

		c.res, c.err = s.execute(ctx, m, p, opt, golden)
		sh.mu.Lock()
		if c.err == nil {
			sh.results[k] = c.res
		}
		delete(sh.inflight, k)
		sh.mu.Unlock()
		close(c.done)
		return c.res, c.err
	}
}

// execute performs one cache-missing simulation: consult the persistent
// store, otherwise run under the parallelism bound and write back.
func (s *Suite) execute(ctx context.Context, m config.Machine, p trace.Profile, opt Options, golden bool) (Result, error) {
	var dk string
	if s.disk != nil {
		dk = digest(m, p, opt)
		fetch := time.Now()
		var res Result
		ok, err := s.disk.Get(dk, &res)
		s.observeStage(ctx, "store_fetch", fetch)
		if err == nil && ok {
			s.storeHits.Add(1)
			return res, nil
		}
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	if s.stages != nil {
		// Layers below the suite (recovery rollbacks) report through the
		// context observer so they feed sim_stage_seconds without importing
		// this package.
		ctx = telemetry.WithStageObserver(ctx, func(stage string, seconds float64) {
			s.stages.With(stage).Observe(seconds)
		})
	}
	res, err := s.simulate(ctx, m, p, opt, golden)
	if err != nil {
		return Result{}, err
	}
	s.runs.Add(1)
	if opt.intervalCount() > 1 {
		s.intervalRuns.Add(1)
	}
	if res.Recovery != nil {
		s.recoveryRuns.Add(1)
		s.rollbacks.Add(res.Recovery.Rollbacks)
	}
	if s.disk != nil {
		// A persistence failure (disk full, closed store) must not discard
		// a successfully computed result: keep serving it from memory and
		// count the failure for observability.
		write := time.Now()
		if err := s.disk.Put(dk, res); err != nil {
			s.storeErrs.Add(1)
		}
		s.observeStage(ctx, "store_write", write)
	}
	return res, nil
}

// simulate performs one underlying run, routing fault-campaign golden
// runs and trials through the shared golden ladder when that is provably
// equivalent to a cold start, and everything else through RunContext.
func (s *Suite) simulate(ctx context.Context, m config.Machine, p trace.Profile, opt Options, golden bool) (Result, error) {
	if golden && ladderApplies(opt) {
		if res, ok := s.goldenFromLadder(ctx, m, p, opt); ok {
			return res, nil
		}
	}
	if ladderServes(m, opt) {
		if res, ok, err := s.runFromLadder(ctx, m, p, opt); err != nil || ok {
			return res, err
		}
	}
	run := time.Now()
	res, err := RunContext(ctx, m, p, opt)
	s.observeStage(ctx, "engine_run", run)
	return res, err
}

// Batch runs every (machine, profile) pair, in parallel, reusing cached
// and in-flight results. Unlike a first-error fan-out, it waits for every
// worker and returns all failures joined with errors.Join, so one bad
// configuration does not hide the others.
func (s *Suite) Batch(ctx context.Context, machines []config.Machine, profiles []trace.Profile) error {
	type job struct {
		m config.Machine
		p trace.Profile
	}
	var jobs []job
	for _, m := range machines {
		for _, p := range profiles {
			// Skip pairs already cached so a warm batch spawns no
			// goroutines and does not inflate the hit counter; races with
			// concurrent fills are still covered by GetOpt's singleflight.
			k := key(m, p, s.opt)
			sh := s.shardFor(k)
			sh.mu.Lock()
			_, ok := sh.results[k]
			sh.mu.Unlock()
			if ok {
				continue
			}
			jobs = append(jobs, job{m, p})
		}
	}
	if len(jobs) == 0 {
		return nil
	}

	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			if _, err := s.GetOpt(ctx, j.m, j.p, s.opt); err != nil {
				errs[i] = fmt.Errorf("%s on %s: %w", j.m.Name, j.p.Name, err)
			}
		}(i, j)
	}
	wg.Wait()
	failed := make([]error, 0, len(errs))
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) == 0 {
		// Every job completed; a context that expired in the final window
		// is irrelevant to the (fully computed) results.
		return nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		// Cancellation cascades into every outstanding job; collapse that
		// noise into one error and keep only genuine failures.
		real := failed[:0]
		for _, err := range failed {
			if !errors.Is(err, ctxErr) {
				real = append(real, err)
			}
		}
		return errors.Join(append(real, fmt.Errorf("sim: batch interrupted: %w", ctxErr))...)
	}
	return errors.Join(failed...)
}

// Lookup returns the cached result for (m, p) at the suite's options
// without running anything and without counting a cache hit — for
// callers collecting results they just computed via Batch, where a hit
// increment would misstate cache effectiveness.
func (s *Suite) Lookup(m config.Machine, p trace.Profile) (Result, bool) {
	k := key(m, p, s.opt)
	sh := s.shardFor(k)
	sh.mu.Lock()
	res, ok := sh.results[k]
	sh.mu.Unlock()
	return res, ok
}

// Len reports how many results are cached, summing shard sizes without
// copying any entries — the cheap gauge behind shrecd_results_cached
// (Results would copy the whole cache on every scrape).
func (s *Suite) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.results)
		sh.mu.Unlock()
	}
	return n
}

// Results returns a snapshot of every cached result, sorted by machine
// then benchmark for stable output (the shrecd GET /results endpoint).
func (s *Suite) Results() []Result {
	var out []Result
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, r := range sh.results {
			out = append(out, r)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Options.WarmupInstrs != b.Options.WarmupInstrs {
			return a.Options.WarmupInstrs < b.Options.WarmupInstrs
		}
		return a.Options.MeasureInstrs < b.Options.MeasureInstrs
	})
	return out
}

// IPC is a convenience accessor.
func (s *Suite) IPC(ctx context.Context, m config.Machine, p trace.Profile) (float64, error) {
	res, err := s.Get(ctx, m, p)
	if err != nil {
		return 0, err
	}
	return res.IPC(), nil
}

// ClassAverages holds the paper's three harmonic-mean aggregates for one
// benchmark class (integer or floating point).
type ClassAverages struct {
	// All is the harmonic-mean IPC over every profile in the class; High
	// and Low restrict it to the paper's high- and low-IPC groups.
	All, High, Low float64
}

// Averages computes harmonic-mean IPCs over profiles for one machine,
// split into the paper's overall/high-IPC/low-IPC aggregates.
func (s *Suite) Averages(ctx context.Context, m config.Machine, profiles []trace.Profile) (ClassAverages, error) {
	var all, high, low []float64
	for _, p := range profiles {
		res, err := s.Get(ctx, m, p)
		if err != nil {
			return ClassAverages{}, err
		}
		ipc := res.IPC()
		all = append(all, ipc)
		if p.HighIPC {
			high = append(high, ipc)
		} else {
			low = append(low, ipc)
		}
	}
	return ClassAverages{
		All:  stats.HarmonicMean(all),
		High: stats.HarmonicMean(high),
		Low:  stats.HarmonicMean(low),
	}, nil
}

// MeanCPI returns the arithmetic-mean CPI over profiles for one machine.
// CPI is additive across equal instruction counts, so arithmetic means are
// the correct aggregate for factorial analysis (the paper analyzes CPI for
// the same reason).
func (s *Suite) MeanCPI(ctx context.Context, m config.Machine, profiles []trace.Profile) (float64, error) {
	var sum float64
	for _, p := range profiles {
		res, err := s.Get(ctx, m, p)
		if err != nil {
			return 0, err
		}
		sum += res.CPI()
	}
	return sum / float64(len(profiles)), nil
}
