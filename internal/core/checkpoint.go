package core

import (
	"errors"
	"math"

	"repro/internal/rng"
	"repro/internal/trace"
)

// ErrNoCloneSource is returned by Checkpoint when the engine's instruction
// source cannot snapshot its stream position.
var ErrNoCloneSource = errors.New("core: instruction source does not implement trace.CloneSource")

// Checkpoint is a frozen deep copy of an engine mid-run: architectural and
// stream position (trace source, fetch sequence), predictor and BTB tables,
// cache contents and in-flight misses, functional-unit occupancy, and the
// whole pipeline window. A checkpoint is inert — it never advances — and a
// single checkpoint can seed any number of engines via NewEngine, which is
// what makes warmup sharing across fault-campaign trials and interval-
// parallel simulation sound: every engine spawned from the same checkpoint
// replays the identical future.
type Checkpoint struct {
	e *Engine
}

// Checkpoint captures the engine's complete state. It fails with
// ErrNoCloneSource when the instruction source cannot be cloned (a custom
// Source not implementing trace.CloneSource). The capture carries no
// observers — fault and retire hooks, retire marks and draw recorders stay
// with the engine — so checkpoints can be shared between runs.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	if _, ok := e.gen.(trace.CloneSource); !ok {
		return nil, ErrNoCloneSource
	}
	c := e.deepClone()
	c.retireHook, c.faultHook, c.onMark, c.draws = nil, nil, nil, nil
	return &Checkpoint{e: c}, nil
}

// FetchSeq returns the next correct-path fetch sequence number at the
// checkpoint — the boundary before which the checkpointed execution already
// fetched. Fault campaigns use it to decide whether a cached warmup
// checkpoint is reusable: injection windows starting at or after FetchSeq
// cannot have consumed fault randomness before the capture.
func (cp *Checkpoint) FetchSeq() uint64 { return cp.e.fetchSeq }

// Stats returns the statistics accumulated up to the checkpoint.
func (cp *Checkpoint) Stats() Stats { return cp.e.stats }

// NewEngine returns a fresh engine continuing from the checkpoint. Each
// call yields an independent engine; running one never perturbs the
// checkpoint or its siblings.
func (cp *Checkpoint) NewEngine() *Engine { return cp.e.deepClone() }

// Restore rewinds e to the checkpointed state in place, copying into e's
// existing buffers so a rollback allocates nothing. e keeps its own
// observers (fault and retire hooks, retire mark, draw recorder); every
// other piece of state is replaced by the checkpoint's.
func (e *Engine) Restore(cp *Checkpoint) {
	retireHook, faultHook := e.retireHook, e.faultHook
	markAt, onMark, draws := e.markAt, e.onMark, e.draws
	e.copyFrom(cp.e)
	e.retireHook, e.faultHook = retireHook, faultHook
	e.markAt, e.onMark, e.draws = markAt, onMark, draws
}

// SetFaultConfig reconfigures fault injection on a (typically
// checkpoint-spawned) engine: per-instruction rate, injector seed, and the
// [lo, hi) correct-path fetch-sequence window (hi == 0 disables only the
// upper bound; lo always applies, which is how recovery's re-injection
// guard advances past a rolled-back fault). The injector RNG restarts from
// the seed. Because faultEligible
// checks the rate and window before drawing randomness, a pre-checkpoint
// execution with injection disabled is bit-identical to one that never
// faults, so enabling injection after restoring a warmup checkpoint is
// exactly equivalent to having run the whole trial from cold start —
// provided the window does not reach back before the capture point (see
// Checkpoint.FetchSeq).
func (e *Engine) SetFaultConfig(rate float64, seed uint64, lo, hi uint64) {
	e.cfg.FaultRate = rate
	e.cfg.FaultSeed = seed
	e.cfg.FaultWindowLo, e.cfg.FaultWindowHi = lo, hi
	e.frng.Seed(seed ^ faultSeedMix)
}

// faultSeedMix decorrelates the injector stream from the workload seeds.
const faultSeedMix = 0xfa117_5eed

// ResumeFaults is SetFaultConfig for an engine spawned from a checkpoint
// taken partway through a fault-free run: the injector also skips the
// drawn draws the trial would have made before the capture (see
// DrawLog.Drawn). The result is exact when none of those draws injected,
// which DrawLog.FirstFault decides.
func (e *Engine) ResumeFaults(rate float64, seed, lo, hi, drawn uint64) {
	e.SetFaultConfig(rate, seed, lo, hi)
	e.frng.Skip(drawn)
}

// RecordDraws starts (log non-nil) or stops (nil) recording the engine's
// fault-draw sites into log: the fetch sequence number of every
// correct-path instruction that reaches a draw, in draw order, whether or
// not injection is enabled. The log is reset and based at the engine's
// next fetch sequence number; draws of instructions fetched before that
// are left out, so the log serves windows that open at or after its base.
func (e *Engine) RecordDraws(log *DrawLog) {
	if log != nil {
		*log = DrawLog{base: e.fetchSeq, offs: log.offs[:0]}
	}
	e.draws = log
}

// DrawLog is the fault-draw trace of a fault-free run (RecordDraws). A
// trial of the same machine injecting at rate r in window [lo, hi), with
// lo at or after the log's base, makes one Bool(r) injector draw for each
// logged seq inside its window, in log order, and is bit-identical to the
// fault-free run until one of them injects — so the log answers where any
// trial diverges without simulating it.
//
// Each draw is kept as a 4-byte offset from the base. Offsets wrap past
// 2^32 fetch sequence numbers, so a log must not span more than that:
// callers bound the recorded run's length.
type DrawLog struct {
	base uint64
	offs []uint32
}

// add logs the draw site of the instruction fetched at seq.
func (d *DrawLog) add(seq uint64) {
	if seq >= d.base {
		d.offs = append(d.offs, uint32(seq-d.base))
	}
}

// Len returns the number of logged draws.
func (d *DrawLog) Len() int { return len(d.offs) }

// window converts a fault window [lo, hi) (hi == 0: unbounded) into
// offsets from the base: draw offset o is inside it when lo <= o < hi.
func (d *DrawLog) window(lo, hi uint64) (uint64, uint64) {
	lo -= min(lo, d.base)
	if hi == 0 {
		return lo, math.MaxUint64
	}
	return lo, hi - min(hi, d.base)
}

// FirstFault replays the injector of a trial with the given fault
// configuration over the log and returns the index of its first injecting
// draw, or Len() when the trial never injects.
func (d *DrawLog) FirstFault(rate float64, seed, lo, hi uint64) int {
	if rate <= 0 {
		return len(d.offs)
	}
	lo, hi = d.window(lo, hi)
	r := rng.New(seed ^ faultSeedMix)
	for i, off := range d.offs {
		if o := uint64(off); o >= lo && o < hi && r.Bool(rate) {
			return i
		}
	}
	return len(d.offs)
}

// Drawn counts the injector draws a trial with window [lo, hi) makes over
// the log's first pos entries.
func (d *DrawLog) Drawn(pos int, lo, hi uint64) uint64 {
	lo, hi = d.window(lo, hi)
	var n uint64
	for _, off := range d.offs[:pos] {
		if o := uint64(off); o >= lo && o < hi {
			n++
		}
	}
	return n
}

// reuse copies src into dst (allocated when nil) and returns dst.
func reuse[T any, P interface {
	*T
	CopyFrom(P)
}](dst, src P) P {
	if dst == nil {
		dst = P(new(T))
	}
	dst.CopyFrom(src)
	return dst
}

// deepClone returns a fully independent copy of the engine.
func (e *Engine) deepClone() *Engine {
	c := new(Engine)
	c.copyFrom(e)
	return c
}

// copyFrom overwrites e with a deep copy of src, reusing e's buffers
// wherever they are large enough: restoring a checkpoint into an engine of
// the same machine and source type allocates nothing, and cloning into the
// zero Engine allocates each buffer exactly once.
func (e *Engine) copyFrom(src *Engine) {
	old := *e
	*e = *src
	e.gen = copySource(old.gen, src.gen)
	e.pred = reuse(old.pred, src.pred)
	e.btb = reuse(old.btb, src.btb)
	e.pool = reuse(old.pool, src.pool)
	if src.checkerPool != nil {
		e.checkerPool = reuse(old.checkerPool, src.checkerPool)
	}
	e.mem = reuse(old.mem, src.mem)
	e.frng = old.frng
	if e.frng == nil {
		e.frng = new(rng.RNG)
	}
	*e.frng = *src.frng
	e.w = old.w
	e.w.copyFrom(&src.w)
	e.robM = old.robM.copied(&src.robM)
	e.robR = old.robR.copied(&src.robR)
	e.lsq = old.lsq.copied(&src.lsq)
	e.pendingR = old.pendingR.copied(&src.pendingR)
	e.meekLog = old.meekLog.copied(&src.meekLog)
	e.meekBusy = append(old.meekBusy[:0], src.meekBusy...)
	e.replay = append(old.replay[:0], src.replay...)
	// Keep the event heap's preallocated capacity so the copy stays
	// allocation-free in steady state.
	events := old.events
	if cap(events) < cap(src.events) {
		events = make([]int64, 0, cap(src.events))
	}
	e.events = append(events[:0], src.events...)
}

// copySource returns a source continuing src's streams: dst itself,
// repositioned in place, when both are generators or both tape cursors;
// otherwise a clone.
func copySource(dst, src trace.Source) trace.Source {
	switch s := src.(type) {
	case *trace.Generator:
		if d, ok := dst.(*trace.Generator); ok {
			d.CopyFrom(s)
			return d
		}
	case *trace.TapeCursor:
		if d, ok := dst.(*trace.TapeCursor); ok {
			d.CopyFrom(s)
			return d
		}
	}
	return src.(trace.CloneSource).CloneSource()
}

// copyFrom overwrites w with a deep copy of o, reusing w's arrays.
func (w *window) copyFrom(o *window) {
	old := *w
	*w = *o
	w.gen = append(old.gen[:0], o.gen...)
	w.seq = append(old.seq[:0], o.seq...)
	w.inst = append(old.inst[:0], o.inst...)
	w.flags = append(old.flags[:0], o.flags...)
	w.dispatchedAt = append(old.dispatchedAt[:0], o.dispatchedAt...)
	w.completeAt = append(old.completeAt[:0], o.completeAt...)
	w.complete2At = append(old.complete2At[:0], o.complete2At...)
	w.checkedAt = append(old.checkedAt[:0], o.checkedAt...)
	w.faultAt = append(old.faultAt[:0], o.faultAt...)
	w.dep1 = append(old.dep1[:0], o.dep1...)
	w.dep2 = append(old.dep2[:0], o.dep2...)
	w.pair = append(old.pair[:0], o.pair...)
	w.prevWriter = append(old.prevWriter[:0], o.prevWriter...)
	w.fwdStore = append(old.fwdStore[:0], o.fwdStore...)
	w.waitCnt = append(old.waitCnt[:0], o.waitCnt...)
	w.readyAt = append(old.readyAt[:0], o.readyAt...)
	w.consumers = append(old.consumers[:0], o.consumers...)
	w.ready = append(old.ready[:0], o.ready...)
	w.isq[0] = append(old.isq[0][:0], o.isq[0]...)
	w.isq[1] = append(old.isq[1][:0], o.isq[1]...)
}

// copied returns a deep copy of o that reuses q's buffer.
func (q idxFifo) copied(o *idxFifo) idxFifo {
	c := *o
	c.buf = append(q.buf[:0], o.buf...)
	return c
}
