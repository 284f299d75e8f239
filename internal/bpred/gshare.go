package bpred

// Gshare is the global-history component: a pattern table of 2-bit
// counters indexed by the XOR of the branch PC and a global history
// register (McFarling, 1993).
type Gshare struct {
	table    []Counter2
	history  uint64
	histMask uint64
	mask     uint64
}

// NewGshare builds a gshare predictor with the given pattern table size
// (power of two) and history length in bits.
func NewGshare(entries, historyBits int) *Gshare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: gshare entries must be a nonzero power of two")
	}
	if historyBits <= 0 || historyBits > 63 {
		panic("bpred: gshare history bits out of range")
	}
	t := make([]Counter2, entries)
	for i := range t {
		t[i] = WeaklyTaken
	}
	return &Gshare{
		table:    t,
		histMask: (1 << historyBits) - 1,
		mask:     uint64(entries - 1),
	}
}

func (g *Gshare) index(pc uint64) uint64 {
	return (pcIndex(pc) ^ g.history) & g.mask
}

// Predict returns the predicted direction for pc under the current global
// history.
func (g *Gshare) Predict(pc uint64) bool {
	return g.table[g.index(pc)].Taken()
}

// Update trains the pattern table and shifts the outcome into the global
// history register.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].Update(taken)
	g.history = ((g.history << 1) | b2u(taken)) & g.histMask
}

// History returns the current global history register (for tests).
func (g *Gshare) History() uint64 { return g.history }

// CopyFrom overwrites g with a deep copy of o, reusing g's table when it
// is large enough. g may be the zero Gshare.
func (g *Gshare) CopyFrom(o *Gshare) {
	table := g.table
	*g = *o
	g.table = append(table[:0], o.table...)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
