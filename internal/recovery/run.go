package recovery

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Outcome classifies what recovery did about one detected fault.
type Outcome uint8

const (
	// OutcomeRecovered: a retained checkpoint predated the injection; the
	// run rolled back to it and re-executed.
	OutcomeRecovered Outcome = iota
	// OutcomeOverrun: the checkpoint ring was at full depth but even the
	// oldest retained checkpoint postdated the injection — the detection
	// latency outran Depth×Interval of retained history.
	OutcomeOverrun
	// OutcomeUnrecoverable: no retained checkpoint predated the injection
	// and the ring was not full (earlier faults consumed the history), so
	// deeper retention alone could not have helped at this point.
	OutcomeUnrecoverable
)

// String names the outcome for reports.
func (o Outcome) String() string {
	switch o {
	case OutcomeRecovered:
		return "recovered"
	case OutcomeOverrun:
		return "overrun"
	case OutcomeUnrecoverable:
		return "unrecoverable"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// maxEvents caps the per-run event log; the Trace counters always carry
// the full totals.
const maxEvents = 64

// Event records one detected fault and recovery's response.
type Event struct {
	// Seq is the faulting instruction's correct-path fetch sequence number.
	Seq uint64 `json:"seq"`
	// InjectCycle and DetectCycle are on the engine's absolute clock
	// (monotone across warmup and rollbacks), so DetectCycle-InjectCycle
	// is the detection latency.
	InjectCycle int64   `json:"injectCycle"`
	DetectCycle int64   `json:"detectCycle"`
	Outcome     Outcome `json:"outcome"`
	// LostWork is the measured cycles of execution the rollback discarded
	// (detection point minus restored checkpoint); zero for non-recovered
	// outcomes, which continue forward without rolling back.
	LostWork int64 `json:"lostWork,omitempty"`
}

// Trace is the raw recovery record of one simulated run: checkpoint and
// rollback counts, discarded work, and a capped event log. It contains no
// cost-derived quantities — FlushCost/RestoreCost are applied by the
// campaign and exploration layers — so a cached Trace serves every cost
// assumption.
type Trace struct {
	Interval uint64 `json:"interval"`
	Depth    int    `json:"depth"`
	// Checkpoints counts captures taken (including the initial capture at
	// the measure start).
	Checkpoints uint64 `json:"checkpoints"`
	// Rollbacks, Overruns, and Unrecoverable count detected faults by
	// outcome.
	Rollbacks     uint64 `json:"rollbacks"`
	Overruns      uint64 `json:"overruns,omitempty"`
	Unrecoverable uint64 `json:"unrecoverable,omitempty"`
	// LostWork is the total cycles discarded by rollbacks.
	LostWork int64 `json:"lostWork"`
	// Events logs the first maxEvents detections in order.
	Events []Event `json:"events,omitempty"`
}

// Detected is the total detected faults the trace classified.
func (t Trace) Detected() uint64 { return t.Rollbacks + t.Overruns + t.Unrecoverable }

// Fatal is the count of detections recovery could not roll back.
func (t Trace) Fatal() uint64 { return t.Overruns + t.Unrecoverable }

// Capture is one interval checkpoint, stamped with the stream and clock
// positions rollback decisions need.
type Capture struct {
	CP *core.Checkpoint
	// FetchSeq is the next unfetched sequence number at capture: the
	// checkpoint is a safe rollback target for any fault injected at
	// FetchSeq or later (the faulting instruction is not yet in flight in
	// the captured state).
	FetchSeq uint64
	// Cycles and Retired are Stats values at capture (the clock rollback
	// rewinds to).
	Cycles  int64
	Retired uint64
}

// Options resumes a run partway and observes its captures. The zero
// Options starts from scratch with an initial capture.
//
// A run can be resumed from any point before its first injected fault,
// given what it held there: the engine (from a checkpoint of it), the
// newest Depth interval captures, and the capture count. Golden-ladder
// trials use this to skip the fault-free prefix of a recovery run.
type Options struct {
	// Ring holds the newest captures taken so far, oldest first. Captures
	// are shared read-only: rollback copies out of them (Restore), so one
	// ring serves any number of resumed runs.
	Ring []Capture
	// Checkpoints is the capture count so far (Trace.Checkpoints).
	Checkpoints uint64
	// MidChunk reports that the engine was captured inside an interval's
	// RunExact (by a retire mark), so the run first Resumes that interval.
	MidChunk bool
	// OnCapture, when non-nil, observes every capture the run takes.
	OnCapture func(Capture)
}

// Run executes e until n total instructions have retired (counted from the
// last ResetStats, like Engine.RunBudget), capturing a checkpoint every
// interval retired instructions and retaining the newest depth of them.
// When the machine detects a fault, the run rolls back to the newest
// retained checkpoint predating the injection (re-arming injection past
// the handled fault) or — when no such checkpoint survives — classifies
// the detection as overrun/unrecoverable and continues forward on the
// engine's inline replay. maxCycles, when positive, bounds the *total*
// simulated effort including discarded work, so recovery storms trip the
// same hang watchdog as plain runs.
//
// The returned stats are the engine's at completion; the trace holds the
// recovery observables. Run requires a cloneable instruction source (see
// core.ErrNoCloneSource) and interval ≥ 1; depth < 1 defaults to 1.
func Run(ctx context.Context, e *core.Engine, n uint64, maxCycles int64, interval uint64, depth int) (core.Stats, Trace, error) {
	return RunOpts(ctx, e, n, maxCycles, interval, depth, Options{})
}

// RunOpts is Run resumed and observed as o describes.
func RunOpts(ctx context.Context, e *core.Engine, n uint64, maxCycles int64, interval uint64, depth int, o Options) (core.Stats, Trace, error) {
	if interval == 0 {
		stats, err := e.RunBudget(ctx, n, maxCycles)
		return stats, Trace{}, err
	}
	if depth < 1 {
		depth = DefaultDepth
	}
	tr := Trace{Interval: interval, Depth: depth, Checkpoints: o.Checkpoints}

	// The hook latches the detection and stops the run (ErrHookStop) so
	// the rollback decision happens here, outside the engine.
	var det struct {
		seq                uint64
		injectAt, detectAt int64
	}
	e.SetFaultHook(func(seq uint64, injectAt, detectAt int64) bool {
		det.seq, det.injectAt, det.detectAt = seq, injectAt, detectAt
		return true
	})
	defer e.SetFaultHook(nil)

	// The fault window's lower bound ratchets past every rolled-back fault
	// so the restored execution cannot re-inject it; strict monotonicity in
	// the sequence number is what bounds the number of rollbacks.
	mc := e.Config()
	rate, seed := mc.FaultRate, mc.FaultSeed
	lo, hi := mc.FaultWindowLo, mc.FaultWindowHi

	ring := make([]Capture, 0, depth)
	ring = append(ring, o.Ring[max(0, len(o.Ring)-depth):]...)
	capture := func() error {
		cp, err := e.Checkpoint()
		if err != nil {
			return err
		}
		if len(ring) == depth {
			copy(ring, ring[1:])
			ring = ring[:depth-1]
		}
		st := e.Stats()
		c := Capture{CP: cp, FetchSeq: cp.FetchSeq(), Cycles: st.Cycles, Retired: st.Retired}
		ring = append(ring, c)
		tr.Checkpoints++
		if o.OnCapture != nil {
			o.OnCapture(c)
		}
		return nil
	}

	// Initial capture: faults detected inside the first interval need a
	// rollback target too.
	if len(ring) == 0 {
		if err := capture(); err != nil {
			return e.Stats(), tr, err
		}
	}
	next := ring[len(ring)-1].Retired + interval
	for mid := o.MidChunk; ; mid = false {
		target := min(next, n)
		budget := maxCycles
		if maxCycles > 0 {
			// The engine's cycle counter rewinds with each rollback; the
			// discarded cycles still happened on the host and still count
			// against the watchdog.
			budget = maxCycles - tr.LostWork
			if budget <= 0 {
				return e.Stats(), tr, fmt.Errorf("recovery: %s lost-work cycles exhausted the %d-cycle budget: %w",
					mc.Name, maxCycles, core.ErrCycleBudget)
			}
		}
		var err error
		if mid {
			_, err = e.Resume(ctx, budget)
		} else {
			_, err = e.RunExact(ctx, target, budget)
		}
		if err == nil {
			if target == n {
				return e.Stats(), tr, nil
			}
			if err := capture(); err != nil {
				return e.Stats(), tr, err
			}
			next = target + interval
			continue
		}
		if !errors.Is(err, core.ErrHookStop) {
			// Hang, deadlock, or cancellation: the caller classifies.
			return e.Stats(), tr, err
		}

		ev := Event{Seq: det.seq, InjectCycle: det.injectAt, DetectCycle: det.detectAt}
		idx := -1
		for i := len(ring) - 1; i >= 0; i-- {
			if ring[i].FetchSeq <= det.seq {
				idx = i
				break
			}
		}
		if idx >= 0 {
			// Roll back. Checkpoints newer than the target were captured
			// with the faulty instruction in flight — drop them.
			ent := ring[idx]
			ev.Outcome = OutcomeRecovered
			ev.LostWork = e.Stats().Cycles - ent.Cycles
			tr.Rollbacks++
			tr.LostWork += ev.LostWork
			ring = ring[:idx+1]
			// Wall-clock restore time goes to the context's telemetry (span
			// + stage histograms), never into the Trace: traces are
			// deterministic, compared byte-for-byte in tests, and persisted.
			restore := time.Now()
			e.Restore(ent.CP)
			telemetry.ObserveStage(ctx, "recovery_rollback", time.Since(restore))
			if det.seq+1 > lo {
				lo = det.seq + 1
			}
			e.SetFaultConfig(rate, seed, lo, hi)
			next = ent.Retired + interval
		} else {
			// No retained checkpoint predates the injection; every retained
			// capture carried the faulty instruction in flight, so all are
			// tainted. Continue forward on the engine's inline replay (the
			// soft exception already squashed and queued a clean re-fetch).
			if len(ring) == depth {
				ev.Outcome = OutcomeOverrun
				tr.Overruns++
			} else {
				ev.Outcome = OutcomeUnrecoverable
				tr.Unrecoverable++
			}
			ring = ring[:0]
		}
		if len(tr.Events) < maxEvents {
			tr.Events = append(tr.Events, ev)
		}
	}
}
