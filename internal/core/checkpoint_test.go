package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/trace"
)

// runTo drives the engine until its total retired count reaches n.
func runTo(t *testing.T, e *Engine, n uint64) Stats {
	t.Helper()
	st, err := e.Run(n)
	if err != nil {
		t.Fatalf("run to %d: %v", n, err)
	}
	return st
}

// assertSameState compares the externally visible counters of two engines
// that should have executed identical histories.
func assertSameState(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Errorf("%s: Stats diverge\n a: %+v\n b: %+v", label, sa, sb)
	}
	if ia, ib := a.Pool().Issued(), b.Pool().Issued(); ia != ib {
		t.Errorf("%s: FU issued diverge: %v vs %v", label, ia, ib)
	}
	if ma, mb := a.Mem().AttemptCounters(), b.Mem().AttemptCounters(); ma != mb {
		t.Errorf("%s: memory attempt counters diverge\n a: %+v\n b: %+v", label, ma, mb)
	}
}

// TestCheckpointRoundTrip checkpoints every equivalence machine mid-run and
// requires the original engine, a checkpoint-spawned engine, and a second
// engine spawned after the first finished to reach byte-identical state —
// proving the checkpoint is a complete capture and that running one spawn
// never perturbs the checkpoint.
func TestCheckpointRoundTrip(t *testing.T) {
	p := memWorkload(7)
	const mid, end = 4000, 16000
	for _, m := range equivalenceMachines() {
		t.Run(m.Name, func(t *testing.T) {
			e := New(m, trace.New(p))
			runTo(t, e, mid)
			cp, err := e.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			if got := cp.FetchSeq(); got < mid {
				t.Errorf("checkpoint FetchSeq %d below retired count %d", got, mid)
			}
			clone := cp.NewEngine()
			runTo(t, e, end)
			runTo(t, clone, end)
			assertSameState(t, "original vs clone", e, clone)

			// The checkpoint must be unchanged by either continuation.
			clone2 := cp.NewEngine()
			runTo(t, clone2, end)
			assertSameState(t, "clone vs late clone", clone, clone2)
		})
	}
}

// TestCheckpointRoundTripTickLoop covers the reference tick-by-tick loop:
// the checkpoint must also capture the oracle-free path's state exactly.
func TestCheckpointRoundTripTickLoop(t *testing.T) {
	p := memWorkload(9)
	m := config.SS2(config.Factors{})
	e := New(m, trace.New(p), WithTickLoop())
	runTo(t, e, 3000)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	clone := cp.NewEngine()
	runTo(t, e, 9000)
	runTo(t, clone, 9000)
	assertSameState(t, "tick-loop original vs clone", e, clone)
}

// TestCheckpointRestore rewinds an engine in place and requires the replay
// to match the first continuation exactly.
func TestCheckpointRestore(t *testing.T) {
	p := memWorkload(13)
	e := New(config.SHREC(), trace.New(p))
	runTo(t, e, 4000)
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	want := runTo(t, e, 16000)
	e.Restore(cp)
	if got := e.Stats(); got != cp.Stats() {
		t.Fatalf("restore did not rewind stats: %+v vs %+v", got, cp.Stats())
	}
	got := runTo(t, e, 16000)
	if want != got {
		t.Errorf("replay after Restore diverged\n first: %+v\nreplay: %+v", want, got)
	}
}

// noCloneSource wraps a Source while hiding its CloneSource method.
type noCloneSource struct{ s trace.Source }

func (n noCloneSource) Next() isa.Inst          { return n.s.Next() }
func (n noCloneSource) NextWrongPath() isa.Inst { return n.s.NextWrongPath() }

// TestCheckpointRequiresCloneSource pins the error contract for sources
// that cannot snapshot their stream position.
func TestCheckpointRequiresCloneSource(t *testing.T) {
	e := New(config.SS1(), noCloneSource{trace.New(testWorkload(3))})
	if _, err := e.Checkpoint(); !errors.Is(err, ErrNoCloneSource) {
		t.Fatalf("Checkpoint error = %v, want ErrNoCloneSource", err)
	}
}

// TestCheckpointFaultReinjection validates the warmup-sharing contract
// fault campaigns rely on: a fault-free engine checkpointed before the
// injection window, re-armed with SetFaultConfig, must replay the exact
// trial a cold-started faulty engine produces — because fault eligibility
// checks the window before drawing randomness, the pre-window prefix
// consumes no injector state.
func TestCheckpointFaultReinjection(t *testing.T) {
	p := memWorkload(17)
	const (
		mid, end = 4000, 16000
		rate     = 2e-4
		seed     = 123
		lo, hi   = 8000, 18000
	)

	cold := config.SHREC()
	cold.FaultRate = rate
	cold.FaultSeed = seed
	cold.FaultWindowLo, cold.FaultWindowHi = lo, hi
	ec := New(cold, trace.New(p))
	runTo(t, ec, mid)

	base := config.SHREC()
	eb := New(base, trace.New(p))
	runTo(t, eb, mid)
	cp, err := eb.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if fs := cp.FetchSeq(); fs > lo {
		t.Fatalf("test premise broken: checkpoint FetchSeq %d already past window start %d", fs, lo)
	}

	clone := cp.NewEngine()
	clone.SetFaultConfig(rate, seed, lo, hi)
	runTo(t, ec, end)
	runTo(t, clone, end)
	assertSameState(t, "cold faulty vs checkpointed+rearmed", ec, clone)
	if clone.Stats().FaultsInjected == 0 {
		t.Error("no faults injected inside the window; test exercised nothing")
	}
}

// TestRestoreAllocationFree pins rollback cost: restoring a checkpoint
// into an engine of the same machine copies into the engine's existing
// buffers and allocates nothing, in every mode — over a generator, and
// over a tape cursor before and past the tape's sealed end.
func TestRestoreAllocationFree(t *testing.T) {
	restore := func(t *testing.T, e *Engine, cp *Checkpoint) {
		t.Helper()
		if n := testing.AllocsPerRun(5, func() { e.Restore(cp) }); n != 0 {
			t.Errorf("Restore allocates %.0f times, want 0", n)
		}
		if got := e.Stats(); got != cp.Stats() {
			t.Errorf("restore did not rewind stats: %+v vs %+v", got, cp.Stats())
		}
	}
	for _, m := range conformanceMachines() {
		t.Run(m.Name, func(t *testing.T) {
			e := New(m, trace.New(memWorkload(5)))
			runTo(t, e, 3000)
			cp, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			runTo(t, e, 6000)
			restore(t, e, cp)
		})
		t.Run(m.Name+"/tape", func(t *testing.T) {
			g := trace.New(memWorkload(5))
			e := New(m, g)
			runTo(t, e, 2000)
			tape := trace.NewTape(g, 0)
			e.SetSource(tape.Cursor())
			runTo(t, e, 3000)
			onTape, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			runTo(t, e, 4000)
			tape.Seal()
			// Past the sealed end the cursor continues from its own
			// generator copy; a checkpoint there carries one too.
			runTo(t, e, 6000)
			if e.Source().(*trace.TapeCursor).TakeTailReads() == 0 {
				t.Fatal("the run never read past the sealed end")
			}
			pastEnd, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			runTo(t, e, 7000)
			restore(t, e, onTape)
			restore(t, e, pastEnd)
			restore(t, e, onTape)
		})
	}
}

// maxCheckpointAllocs bounds allocations per Checkpoint: one per engine
// component and per flat array. Per-set cache or BTB slices would cost
// thousands.
const maxCheckpointAllocs = 96

// TestCheckpointAllocationBound keeps checkpoints flat: capturing one
// costs a bounded number of allocations, independent of cache geometry.
func TestCheckpointAllocationBound(t *testing.T) {
	for _, m := range conformanceMachines() {
		e := New(m, trace.New(memWorkload(5)))
		runTo(t, e, 3000)
		n := testing.AllocsPerRun(3, func() {
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
		if n > maxCheckpointAllocs {
			t.Errorf("%s: Checkpoint allocates %.0f times, bound %d", m.Name, n, maxCheckpointAllocs)
		}
	}
}

// TestRetireMarkResumeExact captures an engine from a retire mark in the
// middle of RunBudget and RunExact runs: the capture, continued with
// Resume, must finish byte-identical to the uninterrupted run — the run
// target, ArchSig bound, exact boundary and stall stamps all travel with
// the checkpoint.
func TestRetireMarkResumeExact(t *testing.T) {
	ctx := context.Background()
	for _, m := range conformanceMachines() {
		for _, exact := range []bool{false, true} {
			e := New(m, trace.New(testWorkload(11)))
			runTo(t, e, 2000)
			e.ResetStats()
			var cp *Checkpoint
			e.SetRetireMark(3000, func() {
				var err error
				if cp, err = e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			})
			run := e.RunBudget
			if exact {
				run = e.RunExact
			}
			want, err := run(ctx, 8001, 0)
			if err != nil {
				t.Fatal(err)
			}
			if cp == nil {
				t.Fatalf("%s: mark never fired", m.Name)
			}
			got, err := cp.NewEngine().Resume(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s (exact %v): resumed run diverged\n got: %+v\nwant: %+v", m.Name, exact, got, want)
			}
		}
	}
}

// TestDrawLogPredictsFirstFault checks the draw log against real faulty
// runs: a trial resumed at a capture before its first injecting draw, its
// injector advanced by the logged draws, equals the cold trial.
func TestDrawLogPredictsFirstFault(t *testing.T) {
	ctx := context.Background()
	p := memWorkload(19)
	const warm, n, lo = 3000, 9000, 3600
	for _, m := range conformanceMachines() {
		g := New(m, trace.New(p))
		runTo(t, g, warm)
		g.ResetStats()
		var log DrawLog
		g.RecordDraws(&log)
		if log.base > lo {
			t.Fatalf("%s: draw log based at %d, after the window start %d", m.Name, log.base, lo)
		}
		var cp *Checkpoint
		var pos int
		g.SetRetireMark(n/2, func() {
			cp, _ = g.Checkpoint()
			pos = log.Len()
		})
		if _, err := g.RunBudget(ctx, n, 0); err != nil {
			t.Fatal(err)
		}
		resumed := 0
		for seed := uint64(1); seed <= 8; seed++ {
			first := log.FirstFault(2e-4, seed, lo, 0)
			if first < pos {
				continue
			}
			resumed++
			fm := m
			fm.FaultRate, fm.FaultSeed, fm.FaultWindowLo = 2e-4, seed, lo
			cold := New(fm, trace.New(p))
			runTo(t, cold, warm)
			cold.ResetStats()
			want, err := cold.RunBudget(ctx, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			e := cp.NewEngine()
			e.ResumeFaults(2e-4, seed, lo, 0, log.Drawn(pos, lo, 0))
			got, err := e.Resume(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s seed %d: resumed trial diverged\n got: %+v\nwant: %+v", m.Name, seed, got, want)
			}
			if (first == log.Len()) != (want.FaultsInjected == 0) {
				t.Errorf("%s seed %d: FirstFault %d of %d, cold run injected %d",
					m.Name, seed, first, log.Len(), want.FaultsInjected)
			}
		}
		if resumed == 0 {
			t.Errorf("%s: no seed resumed; the test exercised nothing", m.Name)
		}
	}
}

// TestDrawLogOffsets pins the offset encoding against absolute sequence
// numbers: a log based far past 2^32, holding draws from before its base
// too, answers FirstFault and Drawn exactly as a scan of the absolute
// draws it kept.
func TestDrawLogOffsets(t *testing.T) {
	const base = 5<<32 + 12345
	r := rng.New(7)
	var seqs []uint64
	for seq := uint64(base - 200); seq < base+50_000; seq += uint64(r.Intn(3)) {
		seqs = append(seqs, seq)
	}
	d := DrawLog{base: base}
	var kept []uint64
	for _, seq := range seqs {
		d.add(seq)
		if seq >= base {
			kept = append(kept, seq)
		}
	}
	if d.Len() != len(kept) {
		t.Fatalf("log holds %d draws, want %d", d.Len(), len(kept))
	}
	first := func(rate float64, seed, lo, hi uint64) int {
		fr := rng.New(seed ^ faultSeedMix)
		for i, seq := range kept {
			if inWindow(seq, lo, hi) && fr.Bool(rate) {
				return i
			}
		}
		return len(kept)
	}
	drawn := func(pos int, lo, hi uint64) uint64 {
		var n uint64
		for _, seq := range kept[:pos] {
			if inWindow(seq, lo, hi) {
				n++
			}
		}
		return n
	}
	for trial := 0; trial < 200; trial++ {
		lo := base + uint64(r.Intn(60_000))
		var hi uint64
		if trial%3 != 0 {
			hi = lo + uint64(r.Intn(30_000))
		}
		rate := []float64{1e-4, 1e-3, 0.02}[trial%3]
		seed := r.Uint64()
		if got, want := d.FirstFault(rate, seed, lo, hi), first(rate, seed, lo, hi); got != want {
			t.Errorf("FirstFault(%g, %d, %d, %d) = %d, want %d", rate, seed, lo, hi, got, want)
		}
		pos := r.Intn(len(kept) + 1)
		if got, want := d.Drawn(pos, lo, hi), drawn(pos, lo, hi); got != want {
			t.Errorf("Drawn(%d, %d, %d) = %d, want %d", pos, lo, hi, got, want)
		}
	}
}
