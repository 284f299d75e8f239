package core

import (
	"fmt"

	"repro/internal/config"
)

// retire commits instructions in program order, up to the configured
// retirement width per cycle.
//
//   - SS1 retires each completed instruction at the ROB head.
//   - SS2 retires a pair per program instruction, comparing the redundant
//     results: both copies must be completed, and together they consume
//     two retirement slots (the B-factor contention).
//   - SHREC retires an instruction only after the in-order checker has
//     verified it.
//
// Stores commit to the data cache at retirement and need a memory port; a
// busy port stalls retirement for the cycle. A detected fault raises a
// soft exception: the pipeline squashes and execution replays from the
// faulting instruction.
func (e *Engine) retire() {
	budget := e.cfg.RetireWidth
	for budget > 0 {
		// An exact run boundary (RunExact) caps retirement at the target
		// even when width and completed instructions remain.
		if e.retireStop != 0 && e.stats.Retired >= e.retireStop {
			return
		}
		switch e.cfg.Mode {
		case config.ModeSS2:
			if !e.retirePair(&budget) {
				return
			}
		case config.ModeSHREC, config.ModeMEEK:
			// MEEK shares SHREC's retirement contract: the head retires
			// only once verified (fCheckIssued + checked), with a compare
			// mismatch raising a soft exception — only the verifying agent
			// differs (checker lanes fed by the retirement log).
			if !e.retireChecked(&budget) {
				return
			}
		case config.ModeFLEX:
			if !e.retireFlex(&budget) {
				return
			}
		case config.ModeO3RS:
			if !e.retireDouble(&budget) {
				return
			}
		default:
			if !e.retireSingle(&budget) {
				return
			}
		}
	}
}

// retireDouble retires one O3RS instruction: both executions must have
// completed, and their results are compared in program order.
func (e *Engine) retireDouble(budget *int) bool {
	if e.robM.empty() {
		return false
	}
	w := &e.w
	s := e.robM.front()
	if !w.completed(s, e.now) || w.flags[s]&fIssued2 == 0 || w.complete2At[s] > e.now {
		return false
	}
	if w.flags[s]&fWrongPath != 0 {
		panic(fmt.Sprintf("core: wrong-path instruction reached O3RS retirement (seq %d)", w.seq[s]))
	}
	if w.flags[s]&(fFaulty|fFaulty2) != 0 {
		e.recordDetection(s, -1)
		e.softException()
		return false
	}
	if !e.commitStore(s) {
		return false
	}
	e.finishRetire(s)
	e.robM.pop()
	w.freeHead(s)
	e.stats.Retired++
	*budget--
	return true
}

// retireSingle retires one SS1 instruction; it returns false when
// retirement must stop for this cycle.
func (e *Engine) retireSingle(budget *int) bool {
	if e.robM.empty() {
		return false
	}
	w := &e.w
	s := e.robM.front()
	if !w.completed(s, e.now) {
		return false
	}
	if w.flags[s]&fWrongPath != 0 {
		panic(fmt.Sprintf("core: wrong-path instruction reached retirement (seq %d)", w.seq[s]))
	}
	if !e.commitStore(s) {
		return false
	}
	if w.flags[s]&fFaulty != 0 {
		// SS1 has no redundancy: the corruption escapes silently.
		e.stats.SilentCorruptions++
	}
	e.finishRetire(s)
	e.robM.pop()
	w.freeHead(s)
	e.stats.Retired++
	*budget--
	return true
}

// retirePair retires one SS2 program instruction (both copies).
func (e *Engine) retirePair(budget *int) bool {
	if *budget < 2 {
		return false
	}
	if e.robM.empty() || e.robR.empty() {
		return false
	}
	w := &e.w
	m, r := e.robM.front(), e.robR.front()
	if w.seq[m] != w.seq[r] {
		panic(fmt.Sprintf("core: ROB heads desynchronized (M seq %d, R seq %d)", w.seq[m], w.seq[r]))
	}
	if w.flags[m]&fWrongPath != 0 {
		panic(fmt.Sprintf("core: wrong-path pair reached retirement (seq %d)", w.seq[m]))
	}
	if !w.completed(m, e.now) || !w.completed(r, e.now) {
		return false
	}
	// Compare the redundant results in program order.
	if (w.flags[m]|w.flags[r])&fFaulty != 0 {
		e.recordDetection(m, r)
		e.softException()
		return false
	}
	if !e.commitStore(m) {
		return false
	}
	e.finishRetire(m)
	e.robM.pop()
	e.robR.pop()
	// The pair occupies adjacent ring slots (the R copy is allocated
	// immediately after its M copy), so both frees land on the ring head.
	w.freeHead(m)
	w.freeHead(r)
	e.stats.Retired++
	*budget -= 2
	return true
}

// retireChecked retires one SHREC instruction after verification.
func (e *Engine) retireChecked(budget *int) bool {
	if e.robM.empty() {
		return false
	}
	w := &e.w
	s := e.robM.front()
	if !w.completed(s, e.now) || w.flags[s]&fCheckIssued == 0 || !w.checked(s, e.now) {
		return false
	}
	if w.flags[s]&fWrongPath != 0 {
		panic(fmt.Sprintf("core: wrong-path instruction reached SHREC retirement (seq %d)", w.seq[s]))
	}
	// The checker's recomputed result is compared against the result
	// buffer; a mismatch means the main execution was corrupted.
	if w.flags[s]&fFaulty != 0 {
		e.recordDetection(s, -1)
		e.softException()
		return false
	}
	if !e.commitStore(s) {
		return false
	}
	e.finishRetire(s)
	e.robM.pop()
	e.checkCount--
	w.freeHead(s)
	e.stats.Retired++
	*budget--
	return true
}

// commitStore writes a retiring store to the data cache. It returns false
// (stalling retirement) when no memory port or MSHR is available.
func (e *Engine) commitStore(s int32) bool {
	if !e.w.inst[s].IsStore() {
		return true
	}
	if _, ok := e.mem.Store(e.now, e.w.inst[s].Addr); !ok {
		e.stats.RetireStoreStalls++
		return false
	}
	return true
}

// finishRetire performs in-order bookkeeping common to all modes: LSQ
// release, the architectural-state signature fold, and the retire hook.
// Every retirement path runs through here, so it also marks the cycle as
// having made forward progress for the cycle-skipping loop.
func (e *Engine) finishRetire(s int32) {
	w := &e.w
	e.progressed = true
	// Fold this instruction's committed architectural effect into the
	// retirement signature (see Stats.ArchSig). One FNV-1a-style fold over
	// PC, opcode, destination, address, and the corruption flags: a faulty
	// result that escapes to retirement (SS1's silent corruptions) makes
	// the trial's signature diverge from the fault-free golden run's.
	// Only the first target retirements of the run fold: the final
	// cycle may overshoot the target by up to RetireWidth, and the
	// overshoot depends on retirement alignment rather than architecture.
	if e.stats.Retired < e.target {
		in := &w.inst[s]
		x := in.PC ^ in.Addr<<16 ^
			uint64(in.Class)<<56 ^ uint64(uint8(in.Dest))<<48
		if w.flags[s]&(fFaulty|fFaulty2) != 0 {
			x ^= 1 << 63
		}
		e.stats.ArchSig = (e.stats.ArchSig ^ x) * 1099511628211
	}
	if e.retireHook != nil {
		e.retireHook(w.inst[s])
	}
	if w.flags[s]&fInLSQ != 0 {
		// Completed loads may already have been swept from the LSQ; any
		// still-resident older loads are completed by in-order
		// retirement, so drop them together with this entry.
		for !e.lsq.empty() {
			h := e.lsq.pop()
			w.flags[h] &^= fInLSQ
			if h == s {
				break
			}
			if !w.inst[h].IsLoad() {
				panic("core: store left the LSQ out of order")
			}
		}
	}
	// Branch predictor and BTB training happen at fetch (see
	// predictBranch); retirement has no predictor bookkeeping left.
}

// recordDetection accounts one detected fault and its injection-to-
// detection latency. For SS2 pairs either copy may carry the fault; pass
// -1 for an absent copy.
func (e *Engine) recordDetection(a, b int32) {
	w := &e.w
	e.stats.FaultsDetected++
	at := int64(-1)
	if a >= 0 && w.flags[a]&(fFaulty|fFaulty2) != 0 {
		at = w.faultAt[a]
	}
	if b >= 0 && w.flags[b]&(fFaulty|fFaulty2) != 0 && (at < 0 || w.faultAt[b] < at) {
		at = w.faultAt[b]
	}
	if at >= 0 && e.now >= at {
		e.stats.FaultDetectLatencySum += uint64(e.now - at)
	}
	if e.faultHook != nil {
		// Both of an SS2 pair's copies carry the same sequence number, so
		// either flagged slot names the faulting program instruction.
		s := a
		if s < 0 || w.flags[s]&(fFaulty|fFaulty2) == 0 {
			s = b
		}
		if e.faultHook(w.seq[s], at, e.now) {
			e.stopRequest = true
		}
	}
	// Clear the flags so the imminent softException does not double-count
	// this fault as squashed.
	if a >= 0 {
		w.flags[a] &^= fFaulty | fFaulty2
	}
	if b >= 0 {
		w.flags[b] &^= fFaulty | fFaulty2
	}
}
