// Package fu models the functional units of the paper's Table 1: 8 integer
// ALUs (1-cycle), 2 integer multiply/divide units (3-cycle multiply,
// 19-cycle unpipelined divide), 2 floating-point adders (2-cycle), and 2
// floating-point multiply/divide units (4-cycle multiply, 12-cycle
// unpipelined divide). All units are pipelined except the divides, which
// occupy their unit for the full latency.
//
// The pool arbitrates per cycle: each pipelined unit accepts one new
// operation per cycle; an unpipelined operation blocks its unit until done.
// The SHREC checker and the out-of-order pipeline share one pool, which is
// exactly the contention the paper studies.
package fu

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// Class identifies a functional unit type. Note that several op classes
// share a unit class (multiply and divide share IMULDIV; FP multiply and
// divide share FMULDIV), matching Table 1.
type Class uint8

const (
	// IALU executes integer ALU ops, branch resolution, and address
	// generation.
	IALU Class = iota
	// IMULDIV executes integer multiplies (pipelined) and divides
	// (unpipelined).
	IMULDIV
	// FADD executes floating-point adds.
	FADD
	// FMULDIV executes floating-point multiplies (pipelined) and divides
	// (unpipelined).
	FMULDIV
	// NumClasses is the number of functional unit classes.
	NumClasses = int(FMULDIV) + 1
)

var classNames = [NumClasses]string{"IALU", "IMULDIV", "FADD", "FMULDIV"}

// String returns the unit class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("fuclass(%d)", uint8(c))
}

// ClassFor maps an operation class to the functional unit class that
// executes it. Loads and stores use an IALU for address generation (their
// memory timing is handled by the cache hierarchy).
func ClassFor(op isa.OpClass) Class {
	switch op {
	case isa.OpIALU, isa.OpLoad, isa.OpStore, isa.OpBranch:
		return IALU
	case isa.OpIMul, isa.OpIDiv:
		return IMULDIV
	case isa.OpFAdd:
		return FADD
	case isa.OpFMul, isa.OpFDiv:
		return FMULDIV
	}
	panic(fmt.Sprintf("fu: unmapped op class %v", op))
}

// Config gives the unit count per class and execution latencies per op
// class.
type Config struct {
	// Counts is the number of units per class.
	Counts [NumClasses]int
	// Latency is the execution latency per op class in cycles. Loads and
	// stores use the address-generation latency here; cache time is added
	// by the memory model.
	Latency [isa.NumOpClasses]int
}

// DefaultConfig returns the Table 1 functional units.
func DefaultConfig() Config {
	var c Config
	c.Counts[IALU] = 8
	c.Counts[IMULDIV] = 2
	c.Counts[FADD] = 2
	c.Counts[FMULDIV] = 2
	c.Latency[isa.OpIALU] = 1
	c.Latency[isa.OpIMul] = 3
	c.Latency[isa.OpIDiv] = 19
	c.Latency[isa.OpFAdd] = 2
	c.Latency[isa.OpFMul] = 4
	c.Latency[isa.OpFDiv] = 12
	c.Latency[isa.OpLoad] = 1  // address generation
	c.Latency[isa.OpStore] = 1 // address generation
	c.Latency[isa.OpBranch] = 1
	return c
}

// Scale returns a copy of the config with unit counts multiplied by f and
// rounded to the nearest integer, with a floor of one unit per class. The
// paper's Figure 8 sweeps 0.5X to 2X.
func (c Config) Scale(f float64) Config {
	out := c
	for i := range out.Counts {
		n := int(float64(c.Counts[i])*f + 0.5)
		if n < 1 {
			n = 1
		}
		out.Counts[i] = n
	}
	return out
}

// Double returns the config with all unit counts doubled (the X-factor).
func (c Config) Double() Config { return c.Scale(2) }

// Pool tracks per-cycle and multi-cycle unit occupancy. The pipeline calls
// BeginCycle each cycle, then TryIssue for each candidate instruction.
type Pool struct {
	cfg Config
	// busyUntil holds, per unit, the cycle after which the unit can
	// accept a new operation (for unpipelined ops). Pipelined units are
	// limited only by the per-cycle issue reservation below.
	busyUntil [NumClasses][]int64
	// usedThisCycle counts per-class issues this cycle; each unit accepts
	// at most one new op per cycle.
	usedThisCycle [NumClasses]int
	cycle         int64

	issued  [NumClasses]uint64
	refused [NumClasses]uint64
}

// NewPool builds a pool from cfg.
func NewPool(cfg Config) *Pool {
	p := &Pool{cfg: cfg}
	for c := 0; c < NumClasses; c++ {
		if cfg.Counts[c] <= 0 {
			panic(fmt.Sprintf("fu: class %v has no units", Class(c)))
		}
		p.busyUntil[c] = make([]int64, cfg.Counts[c])
	}
	return p
}

// Config returns the pool's configuration.
func (p *Pool) Config() Config { return p.cfg }

// CopyFrom overwrites p with a deep copy of o, reusing p's unit arrays
// when they are large enough. p may be the zero Pool.
func (p *Pool) CopyFrom(o *Pool) {
	busy := p.busyUntil
	*p = *o
	for cl := range p.busyUntil {
		p.busyUntil[cl] = append(busy[cl][:0], o.busyUntil[cl]...)
	}
}

// BeginCycle resets per-cycle issue reservations.
func (p *Pool) BeginCycle(now int64) {
	if now != p.cycle {
		p.cycle = now
		for c := range p.usedThisCycle {
			p.usedThisCycle[c] = 0
		}
	}
}

// Available reports whether a unit of the class executing op could accept a
// new operation this cycle, without reserving it.
func (p *Pool) Available(now int64, op isa.OpClass) bool {
	c := ClassFor(op)
	_, ok := p.findFree(now, c)
	return ok
}

// findFree returns the first unit of class c not held by an unpipelined
// operation, and whether a new op may start this cycle. Units within a
// class are interchangeable: each unit not held by an unpipelined op can
// accept one new operation per cycle, so the per-cycle budget is the free
// unit count. usedThisCycle counts pipelined issues only; unpipelined
// issues shrink the free set directly via busyUntil.
func (p *Pool) findFree(now int64, c Class) (unit int, ok bool) {
	freeCount := 0
	firstFree := -1
	for u, until := range p.busyUntil[c] {
		if until <= now {
			if firstFree < 0 {
				firstFree = u
			}
			freeCount++
		}
	}
	if p.usedThisCycle[c] >= freeCount {
		return -1, false
	}
	return firstFree, true
}

// TryIssue attempts to claim a unit for op at cycle now. On success it
// returns the completion cycle. Unpipelined ops (divides) hold the unit
// until completion.
func (p *Pool) TryIssue(now int64, op isa.OpClass) (doneAt int64, ok bool) {
	c := ClassFor(op)
	u, free := p.findFree(now, c)
	if !free {
		p.refused[c]++
		return 0, false
	}
	p.issued[c]++
	lat := int64(p.cfg.Latency[op])
	done := now + lat
	if op.IsLongLatency() {
		p.busyUntil[c][u] = done
	} else {
		p.usedThisCycle[c]++
	}
	return done, true
}

// Latency returns the configured execution latency for op.
func (p *Pool) Latency(op isa.OpClass) int { return p.cfg.Latency[op] }

// NextCompletion returns the earliest cycle strictly after now at which a
// unit held by an unpipelined operation frees up, or math.MaxInt64 when no
// unit is held. Pipelined units are never held across cycles (their
// per-cycle reservations reset every cycle), so this is the pool's only
// self-scheduled future event — the cycle-skipping engine loop folds it
// into its event horizon.
func (p *Pool) NextCompletion(now int64) int64 {
	next := int64(math.MaxInt64)
	for c := range p.busyUntil {
		for _, until := range p.busyUntil[c] {
			if until > now && until < next {
				next = until
			}
		}
	}
	return next
}

// AddRefused adds k repetitions of the per-class refusal deltas d. The
// cycle-skipping engine loop uses it to account the issue attempts the
// reference per-cycle loop would have made during provably-idle stall
// cycles, keeping the refusal counters identical between the two loops.
func (p *Pool) AddRefused(d [NumClasses]uint64, k uint64) {
	for c := range d {
		p.refused[c] += d[c] * k
	}
}

// Issued returns the number of operations issued per class.
func (p *Pool) Issued() [NumClasses]uint64 { return p.issued }

// Refused returns the number of issue attempts refused per class.
func (p *Pool) Refused() [NumClasses]uint64 { return p.refused }

// Utilization returns, per class, issued operations divided by
// units*cycles — the average fraction of issue opportunities used over
// cycles cycles.
func (p *Pool) Utilization(cycles int64) [NumClasses]float64 {
	var out [NumClasses]float64
	if cycles <= 0 {
		return out
	}
	for c := 0; c < NumClasses; c++ {
		out[c] = float64(p.issued[c]) / (float64(p.cfg.Counts[c]) * float64(cycles))
	}
	return out
}

// ResetStats zeroes the issue counters without touching occupancy.
func (p *Pool) ResetStats() {
	p.issued = [NumClasses]uint64{}
	p.refused = [NumClasses]uint64{}
}
