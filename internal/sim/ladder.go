package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/store"
	"repro/internal/trace"
)

// ladderQuarters places the golden ladder's mid-run rungs: one at each
// k/ladderQuarters of the measured retire count for k = 1 ..
// ladderQuarters-1, on top of rung 0 at the end of the warmup. Quarters
// skip about two thirds of the measured cycles of an average fault trial;
// eighths add only a few points for twice the checkpoint memory.
const ladderQuarters = 4

// maxLadders bounds the Suite's ladder cache: a long-running server that
// serves campaigns over many (machine, benchmark, run length) keys keeps
// only the most recently used ladders, a few megabytes each. A campaign
// uses one ladder for all its trials, so a handful covers every campaign
// that can run at once.
const maxLadders = 4

// ladder is the golden checkpoint ladder of one fault-free (machine,
// workload, run lengths, recovery policy) run, shared by every fault trial
// over it. A trial is bit-identical to the fault-free run until its first
// injecting fault draw, so it can start at the last rung before that draw
// — or, when it never injects, take the fault-free run's outcome outright.
type ladder struct {
	// rungs are ascending in draws position; rungs[0] is the end of the
	// warmup, before the measured run starts.
	rungs []rung
	// draws logs every correct-path fault-draw site of the measured run
	// (core.RecordDraws), which is where any trial's injector draws.
	draws core.DrawLog
	// tape records the instruction streams the fault-free run fetched
	// after the warmup; rungs and trials read it through cursors.
	tape *trace.Tape
	// final and trace are the fault-free run's outcome.
	final core.Stats
	trace *recovery.Trace
	// engines holds finished trial engines for reuse, at most one per
	// simulation the suite runs at once. A free list owned by the ladder,
	// not a sync.Pool: pooled engines stay reachable from the runtime for
	// up to two collections after their ladder is dropped, so back-to-back
	// campaigns kept their predecessors' engines live.
	engines chan *core.Engine
}

// rung is one checkpoint of the fault-free run.
type rung struct {
	cp *core.Checkpoint
	// pos is how many draws precede the capture.
	pos int
	// mid marks a capture taken inside the measured run (continued with
	// Resume); false means the capture precedes the run's (or the
	// recovery interval's) start.
	mid bool
	// ring and checkpoints are the recovery runner's state at the
	// capture: its newest interval captures and its capture count.
	ring        []recovery.Capture
	checkpoints uint64
}

// ladderEntry is one cached ladder, built once by the first requester
// while duplicates wait on the sync.Once.
type ladderEntry struct {
	key  string
	once sync.Once
	l    *ladder
	err  error
}

// ladderBase is the fault-free, checkpoint-free machine every trial over m
// shares: the display name, injection and recovery fields are zeroed, and
// the recovery policy is keyed separately.
func ladderBase(m config.Machine) config.Machine {
	base := m
	base.Name = ""
	base.FaultRate, base.FaultSeed = 0, 0
	base.FaultWindowLo, base.FaultWindowHi = 0, 0
	base.CkptInterval, base.CkptDepth = 0, 0
	return base
}

// maxLadderInstrs bounds the measured run a ladder covers, so the draw
// log's 32-bit offsets from rung 0's fetch sequence number cannot wrap:
// fetch runs at most a window of instructions — far below 2^31 — ahead of
// retirement. Longer runs go cold.
const maxLadderInstrs = 1 << 31

// ladderApplies reports whether runs at opt may share a ladder: the
// classic contiguous path, with a warmup to share and a measured run the
// draw log can span.
func ladderApplies(opt Options) bool {
	return opt.intervalCount() == 1 && opt.WarmupInstrs > 0 && opt.MeasureInstrs <= maxLadderInstrs
}

// ladderServes reports whether fault trials of m may share a ladder:
// machines that inject faults (fault-free runs dedupe on the result key
// already), whose window cannot open during the warmup. FetchSeq runs
// ahead of the retired count, so the precise bound is rechecked against
// the built ladder's rung 0.
func ladderServes(m config.Machine, opt Options) bool {
	return ladderApplies(opt) && m.FaultRate > 0 && m.FaultWindowLo >= opt.WarmupInstrs
}

// ladderFor returns the cached ladder for m's fault-free run, building it
// on first use (timed as stage ladder_build; a run served by an existing
// or in-flight build is timed as warmup_share). Only the maxLadders most recently used ladders stay
// cached; a failed build is dropped so a later trial retries it.
func (s *Suite) ladderFor(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (*ladder, error) {
	base := ladderBase(m)
	k := store.Digest("sim.ladder.v1", base, p, opt.WarmupInstrs, opt.MeasureInstrs, m.CkptInterval, m.CkptDepth)

	s.ladderMu.Lock()
	var entry *ladderEntry
	for i, en := range s.ladders {
		if en.key == k {
			entry = en
			copy(s.ladders[1:i+1], s.ladders[:i])
			s.ladders[0] = en
			break
		}
	}
	if entry == nil {
		entry = &ladderEntry{key: k}
		if len(s.ladders) < maxLadders {
			s.ladders = append(s.ladders, nil)
		}
		copy(s.ladders[1:], s.ladders)
		s.ladders[0] = entry
	}
	s.ladderMu.Unlock()

	start := time.Now()
	built := false
	entry.once.Do(func() {
		built = true
		entry.l, entry.err = buildLadder(ctx, base, p, opt, m.CkptInterval, m.CkptDepth, cap(s.sem))
	})
	// The fault-free pass is one stage whichever run triggers it; a run
	// that found the ladder built, or waited on another's build, shares
	// it.
	if built {
		s.observeStage(ctx, "ladder_build", start)
	} else {
		s.observeStage(ctx, "warmup_share", start)
	}
	if entry.err != nil {
		s.ladderMu.Lock()
		for i, en := range s.ladders {
			if en == entry {
				s.ladders = append(s.ladders[:i], s.ladders[i+1:]...)
				break
			}
		}
		s.ladderMu.Unlock()
	}
	return entry.l, entry.err
}

// buildLadder runs base fault-free over the warmup and the measured
// region, recording the draw log and capturing rungs without disturbing
// the run: rung 0 before the measured run starts, the rest from retire
// marks inside it. A checkpointing machine runs under the same recovery
// driver as its trials, and the newest interval capture before each mark
// is a rung too. From the end of the warmup the engine reads through a
// cursor that records the generator's streams onto the ladder's tape,
// sealed when the run ends.
func buildLadder(ctx context.Context, base config.Machine, p trace.Profile, opt Options, interval uint64, depth, spares int) (*ladder, error) {
	g := trace.New(p)
	e := core.New(base, g)
	if err := e.WarmupContext(ctx, opt.WarmupInstrs); err != nil {
		return nil, err
	}
	n := opt.MeasureInstrs
	// The run fetches its measured instructions, less those in flight at
	// the warmup's end, plus those in flight at its own end.
	l := &ladder{
		tape:    trace.NewTape(g, int(n)+base.ROBSize+tapeSlack),
		engines: make(chan *core.Engine, spares),
	}
	e.SetSource(l.tape.Cursor())
	e.RecordDraws(&l.draws)

	// The recovery runner's ring and capture count, mirrored through
	// OnCapture; capPos is the draws position of the newest capture and
	// rungCaps the capture count of the newest capture made a rung.
	var ring []recovery.Capture
	var captures, rungCaps uint64
	var capPos int
	var markErr error
	q := uint64(1)
	var mark func()
	mark = func() {
		cp, err := e.Checkpoint()
		if err != nil {
			markErr = err
			return
		}
		if captures > rungCaps {
			// The newest interval capture is a rung of its own.
			l.rungs = append(l.rungs, rung{cp: ring[len(ring)-1].CP, pos: capPos,
				ring: ring, checkpoints: captures})
			rungCaps = captures
		}
		l.rungs = append(l.rungs, rung{cp: cp, pos: l.draws.Len(), mid: true,
			ring: ring, checkpoints: captures})
		if q++; q < ladderQuarters {
			e.SetRetireMark(n*q/ladderQuarters, mark)
		}
	}
	e.SetRetireMark(n/ladderQuarters, mark)

	if interval == 0 {
		cp, err := e.Checkpoint()
		if err != nil {
			return nil, err
		}
		l.rungs = append(l.rungs, rung{cp: cp})
		st, err := e.RunBudget(ctx, n, 0)
		if err != nil {
			return nil, err
		}
		l.final = st
	} else {
		if depth < 1 {
			depth = recovery.DefaultDepth
		}
		onCapture := func(c recovery.Capture) {
			captures++
			// Copy on write: rungs hold earlier ring snapshots.
			keep := ring[max(0, len(ring)-depth+1):]
			ring = append(append(make([]recovery.Capture, 0, depth), keep...), c)
			capPos = l.draws.Len()
			if len(l.rungs) == 0 {
				l.rungs = append(l.rungs, rung{cp: c.CP, ring: ring, checkpoints: captures})
				rungCaps = captures
			}
		}
		st, tr, err := recovery.RunOpts(ctx, e, n, 0, interval, depth, recovery.Options{OnCapture: onCapture})
		if err != nil {
			return nil, err
		}
		l.final, l.trace = st, &tr
	}
	if markErr != nil {
		return nil, markErr
	}
	l.tape.Seal()
	return l, nil
}

// tapeSlack pads the tape's reserved correct-path length past a full
// window of in-flight instructions, for the fetch buffer and the final
// cycle's retirement overshoot.
const tapeSlack = 64

// result is the ladder's fault-free run as m's Result at opt.
func (l *ladder) result(m config.Machine, p trace.Profile, opt Options) Result {
	var tr *recovery.Trace
	if l.trace != nil {
		t := *l.trace // a fault-free trace logs no events to share
		tr = &t
	}
	return newResult(m, p, opt, l.final, tr, false)
}

// goldenFromLadder serves the fault-free run of m, whose fault trials
// share a ladder, from that ladder's pass — building the ladder if no
// trial has yet — so a campaign simulates its fault-free run once. ok is
// false when the ladder cannot stand in for m's run: m injects faults or
// is invalid, opt's cycle budget cuts the run short, or the build failed
// (the cold run that follows reports why).
func (s *Suite) goldenFromLadder(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, bool) {
	if m.FaultRate > 0 || m.Validate() != nil {
		return Result{}, false
	}
	l, err := s.ladderFor(ctx, m, p, opt)
	if err != nil || (opt.MaxCycles > 0 && l.final.Cycles > opt.MaxCycles) {
		return Result{}, false
	}
	s.ladderGoldens.Add(1)
	return l.result(m, p, opt), true
}

// runFromLadder serves one fault trial from the golden ladder of its
// fault-free run. ok reports whether the ladder applied; on ok == false
// (ladder build failed, or the window opens before rung 0's fetch
// frontier) the caller falls back to a cold run.
//
// The trial replays its own injector over the draw log to find its first
// injecting draw. With none, its Result is the fault-free run's. Otherwise
// it resumes the last rung before that draw, its injector advanced past
// the draws it would have made — all non-injecting — before the rung.
// When the fault-free run itself outlasts the trial's cycle budget only
// rung 0 is used: the budget is checked against the run as a whole, and
// rung 0 precedes every check.
func (s *Suite) runFromLadder(ctx context.Context, m config.Machine, p trace.Profile, opt Options) (Result, bool, error) {
	if err := m.Validate(); err != nil {
		return Result{}, false, fmt.Errorf("sim: %w", err)
	}
	l, err := s.ladderFor(ctx, m, p, opt)
	if err != nil {
		// The build may have died on this caller's context; the trial runs
		// cold (and reports the cancellation itself if so).
		return Result{}, false, nil
	}
	if m.FaultWindowLo < l.rungs[0].cp.FetchSeq() {
		return Result{}, false, nil
	}

	lo, hi := m.FaultWindowLo, m.FaultWindowHi
	first := l.draws.FirstFault(m.FaultRate, m.FaultSeed, lo, hi)
	whole := opt.MaxCycles <= 0 || l.final.Cycles <= opt.MaxCycles
	if first == l.draws.Len() && whole {
		s.warmupShares.Add(1)
		s.cleanShortcuts.Add(1)
		s.skippedInstrs.Add(l.final.Retired)
		return l.result(m, p, opt), true, nil
	}
	r := l.rungs[0]
	if whole {
		for _, c := range l.rungs[1:] {
			if c.pos > first {
				break
			}
			r = c
		}
	}

	run := time.Now()
	// Trial engines recycle through the ladder: Restore copies a rung into
	// a finished trial's buffers without allocating.
	var e *core.Engine
	select {
	case e = <-l.engines:
		e.Restore(r.cp)
	default:
		e = r.cp.NewEngine()
	}
	defer func() {
		select {
		case l.engines <- e:
		default:
		}
	}()
	e.ResumeFaults(m.FaultRate, m.FaultSeed, lo, hi, l.draws.Drawn(r.pos, lo, hi))
	var st core.Stats
	var tr *recovery.Trace
	if m.CkptInterval == 0 {
		if r.mid {
			st, err = e.Resume(ctx, opt.MaxCycles)
		} else {
			st, err = e.RunBudget(ctx, opt.MeasureInstrs, opt.MaxCycles)
		}
	} else {
		var t recovery.Trace
		st, t, err = recovery.RunOpts(ctx, e, opt.MeasureInstrs, opt.MaxCycles, m.CkptInterval, m.CkptDepth,
			recovery.Options{Ring: r.ring, Checkpoints: r.checkpoints, MidChunk: r.mid})
		tr = &t
	}
	s.observeStage(ctx, "engine_run", run)
	s.tapeTailReads.Add(e.Source().(*trace.TapeCursor).TakeTailReads())
	hung := false
	if err != nil {
		if !errors.Is(err, core.ErrCycleBudget) {
			return Result{}, false, fmt.Errorf("sim: %w", err)
		}
		hung = true
	}
	s.warmupShares.Add(1)
	if r.cp != l.rungs[0].cp {
		s.ladderResumes.Add(1)
		s.skippedInstrs.Add(r.cp.Stats().Retired)
	}
	return newResult(m, p, opt, st, tr, hung), true, nil
}
