// Package bpred implements the branch prediction hardware the paper's
// Table 1 provisions: a combining (tournament) direction predictor built
// from a 64K-entry gshare and a two-level per-address (PAs) predictor with
// 16K first-level history registers and a 64K-entry second-level pattern
// table, selected by a 64K-entry meta chooser, plus a 2K-entry 4-way
// set-associative branch target buffer.
//
// All tables use 2-bit saturating counters and are indexed by word-aligned
// PCs (the low two PC bits are ignored).
package bpred

import "repro/internal/isa"

// DirPredictor predicts conditional branch directions. Implementations are
// updated with the actual outcome after the branch resolves.
type DirPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the actual outcome.
	Update(pc uint64, taken bool)
}

// Counter2 is a 2-bit saturating counter. Values 0-1 predict not-taken,
// 2-3 predict taken.
type Counter2 uint8

// Taken reports the counter's current prediction.
func (c Counter2) Taken() bool { return c >= 2 }

// Update moves the counter toward the outcome, saturating at 0 and 3.
func (c Counter2) Update(taken bool) Counter2 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// WeaklyTaken is the customary initial counter state.
const WeaklyTaken Counter2 = 2

func pcIndex(pc uint64) uint64 { return pc >> 2 }

// Config describes the full predictor complex. The zero value is invalid;
// use DefaultConfig (Table 1) or populate every field.
type Config struct {
	// GshareEntries is the gshare pattern table size (power of two).
	GshareEntries int
	// GshareHistoryBits is the global history length.
	GshareHistoryBits int
	// PAsL1Entries is the number of per-address history registers.
	PAsL1Entries int
	// PAsL2Entries is the per-address pattern table size.
	PAsL2Entries int
	// PAsHistoryBits is the local history length.
	PAsHistoryBits int
	// MetaEntries is the chooser table size.
	MetaEntries int
	// BTBSets and BTBWays shape the branch target buffer.
	BTBSets, BTBWays int
	// MispredictPenalty is the pipeline recovery latency in cycles after a
	// mispredicted branch resolves (Table 1: 7 cycles).
	MispredictPenalty int
}

// DefaultConfig returns the Table 1 predictor: 64K gshare, 16K/64K PAs,
// 64K meta, 2K-entry 4-way BTB, 7-cycle misprediction recovery.
func DefaultConfig() Config {
	return Config{
		GshareEntries:     64 * 1024,
		GshareHistoryBits: 16,
		PAsL1Entries:      16 * 1024,
		PAsL2Entries:      64 * 1024,
		PAsHistoryBits:    16,
		MetaEntries:       64 * 1024,
		BTBSets:           512, // 512 sets x 4 ways = 2K entries
		BTBWays:           4,
		MispredictPenalty: 7,
	}
}

// Combining is the tournament predictor: a meta table of 2-bit counters
// picks between the gshare and PAs components per branch. Both components
// are always trained; the meta counter is trained toward whichever
// component was correct when they disagree.
type Combining struct {
	gshare *Gshare
	pas    *PAs
	meta   []Counter2
	mask   uint64

	// Stats
	lookups     uint64
	mispredicts uint64
}

// NewCombining builds the combining predictor from cfg.
func NewCombining(cfg Config) *Combining {
	if cfg.MetaEntries == 0 || cfg.MetaEntries&(cfg.MetaEntries-1) != 0 {
		panic("bpred: MetaEntries must be a nonzero power of two")
	}
	meta := make([]Counter2, cfg.MetaEntries)
	for i := range meta {
		meta[i] = WeaklyTaken // weakly prefer gshare
	}
	return &Combining{
		gshare: NewGshare(cfg.GshareEntries, cfg.GshareHistoryBits),
		pas:    NewPAs(cfg.PAsL1Entries, cfg.PAsL2Entries, cfg.PAsHistoryBits),
		meta:   meta,
		mask:   uint64(cfg.MetaEntries - 1),
	}
}

// Predict returns the chosen component's prediction for pc.
func (c *Combining) Predict(pc uint64) bool {
	c.lookups++
	if c.meta[pcIndex(pc)&c.mask].Taken() {
		return c.gshare.Predict(pc)
	}
	return c.pas.Predict(pc)
}

// Update trains both components and the chooser.
func (c *Combining) Update(pc uint64, taken bool) {
	g := c.gshare.Predict(pc)
	p := c.pas.Predict(pc)
	chosen := p
	if c.meta[pcIndex(pc)&c.mask].Taken() {
		chosen = g
	}
	if chosen != taken {
		c.mispredicts++
	}
	if g != p {
		i := pcIndex(pc) & c.mask
		c.meta[i] = c.meta[i].Update(g == taken)
	}
	c.gshare.Update(pc, taken)
	c.pas.Update(pc, taken)
}

// Stats returns lookups and mispredictions recorded by Update.
func (c *Combining) Stats() (lookups, mispredicts uint64) {
	return c.lookups, c.mispredicts
}

// CopyFrom overwrites c with a deep copy of o, reusing c's tables when
// they are large enough. c may be the zero Combining.
func (c *Combining) CopyFrom(o *Combining) {
	gshare, pas, meta := c.gshare, c.pas, c.meta
	*c = *o
	if gshare == nil {
		gshare = new(Gshare)
	}
	if pas == nil {
		pas = new(PAs)
	}
	gshare.CopyFrom(o.gshare)
	pas.CopyFrom(o.pas)
	c.gshare, c.pas = gshare, pas
	c.meta = append(meta[:0], o.meta...)
}

// MispredictRate returns the fraction of updated predictions that were
// wrong, or 0 before any update.
func (c *Combining) MispredictRate() float64 {
	if c.lookups == 0 {
		return 0
	}
	return float64(c.mispredicts) / float64(c.lookups)
}

// PredictInst predicts an instruction's control-flow outcome: direction for
// conditional branches (unconditional branches are always taken). Non-branch
// instructions are not predicted.
func (c *Combining) PredictInst(in *isa.Inst) bool {
	switch in.BranchKind {
	case isa.BranchCond:
		return c.Predict(in.PC)
	case isa.BranchUncond, isa.BranchIndirect:
		return true
	default:
		return false
	}
}

// UpdateInst trains the predictor with a resolved branch. Unconditional
// branches do not train the direction tables.
func (c *Combining) UpdateInst(in *isa.Inst) {
	if in.BranchKind == isa.BranchCond {
		c.Update(in.PC, in.Taken)
	}
}
