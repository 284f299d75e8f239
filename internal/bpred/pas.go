package bpred

// PAs is the per-address two-level component: a first-level table of
// per-branch history registers selects into a second-level pattern table of
// 2-bit counters (Yeh & Patt, 1992). Table 1 sizes this at 16K first-level
// entries and a 64K-entry second level.
type PAs struct {
	histories []uint64
	table     []Counter2
	l1Mask    uint64
	l2Mask    uint64
	histMask  uint64
}

// NewPAs builds a PAs predictor. l1Entries and l2Entries must be powers of
// two; historyBits is the local history length.
func NewPAs(l1Entries, l2Entries, historyBits int) *PAs {
	if l1Entries <= 0 || l1Entries&(l1Entries-1) != 0 {
		panic("bpred: PAs L1 entries must be a nonzero power of two")
	}
	if l2Entries <= 0 || l2Entries&(l2Entries-1) != 0 {
		panic("bpred: PAs L2 entries must be a nonzero power of two")
	}
	if historyBits <= 0 || historyBits > 63 {
		panic("bpred: PAs history bits out of range")
	}
	t := make([]Counter2, l2Entries)
	for i := range t {
		t[i] = WeaklyTaken
	}
	return &PAs{
		histories: make([]uint64, l1Entries),
		table:     t,
		l1Mask:    uint64(l1Entries - 1),
		l2Mask:    uint64(l2Entries - 1),
		histMask:  (1 << historyBits) - 1,
	}
}

func (p *PAs) index(pc uint64) (l1 uint64, l2 uint64) {
	l1 = pcIndex(pc) & p.l1Mask
	// XOR local history with the PC index to spread distinct branches
	// with similar histories across the second-level table.
	h := p.histories[l1]
	l2 = (h ^ pcIndex(pc)) & p.l2Mask
	return l1, l2
}

// Predict returns the predicted direction for pc under its local history.
func (p *PAs) Predict(pc uint64) bool {
	_, l2 := p.index(pc)
	return p.table[l2].Taken()
}

// Update trains the pattern table and the branch's local history register.
func (p *PAs) Update(pc uint64, taken bool) {
	l1, l2 := p.index(pc)
	p.table[l2] = p.table[l2].Update(taken)
	p.histories[l1] = ((p.histories[l1] << 1) | b2u(taken)) & p.histMask
}

// CopyFrom overwrites p with a deep copy of o, reusing p's tables when
// they are large enough. p may be the zero PAs.
func (p *PAs) CopyFrom(o *PAs) {
	histories, table := p.histories, p.table
	*p = *o
	p.histories = append(histories[:0], o.histories...)
	p.table = append(table[:0], o.table...)
}
