package bpred

// BTB is a set-associative branch target buffer with true-LRU replacement.
// Table 1 provisions 2K entries, 4-way. A fetch that predicts a branch
// taken but misses in the BTB cannot redirect in the same cycle and pays a
// fetch bubble.
type BTB struct {
	sets     int
	ways     int
	setMask  uint64
	setShift uint
	// tags, targets and lru are flat set-major arrays indexed
	// set*ways+way, so a checkpoint copies three slices instead of three
	// per set.
	tags    []uint64 // 0 means invalid (tags are made nonzero)
	targets []uint64
	lru     []uint8 // lower value = more recently used

	lookups uint64
	hits    uint64
}

// NewBTB builds a BTB with sets x ways entries. sets must be a power of two.
func NewBTB(sets, ways int) *BTB {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("bpred: BTB sets must be a nonzero power of two")
	}
	if ways <= 0 {
		panic("bpred: BTB ways must be positive")
	}
	shift := uint(0)
	for 1<<shift < sets {
		shift++
	}
	b := &BTB{sets: sets, ways: ways, setMask: uint64(sets - 1), setShift: shift}
	b.tags = make([]uint64, sets*ways)
	b.targets = make([]uint64, sets*ways)
	b.lru = make([]uint8, sets*ways)
	for i := range b.lru {
		b.lru[i] = uint8(i % ways)
	}
	return b
}

// split returns the flat index of pc's set's first way and pc's tag.
func (b *BTB) split(pc uint64) (base int, tag uint64) {
	idx := pcIndex(pc)
	// Tag is made nonzero so the zero value marks an invalid way.
	return int(idx&b.setMask) * b.ways, (idx >> b.setShift) | 1<<63
}

// Lookup returns the predicted target for pc and whether it hit.
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	b.lookups++
	base, tag := b.split(pc)
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == tag {
			b.hits++
			b.touch(base, w)
			return b.targets[base+w], true
		}
	}
	return 0, false
}

// Insert records or updates the target for pc, evicting the LRU way on a
// conflict.
func (b *BTB) Insert(pc, target uint64) {
	base, tag := b.split(pc)
	victim := 0
	for w := 0; w < b.ways; w++ {
		if b.tags[base+w] == tag {
			b.targets[base+w] = target
			b.touch(base, w)
			return
		}
		if b.lru[base+w] > b.lru[base+victim] {
			victim = w
		}
	}
	b.tags[base+victim] = tag
	b.targets[base+victim] = target
	b.touch(base, victim)
}

// touch marks way w of the set starting at flat index base most recently
// used.
func (b *BTB) touch(base, w int) {
	lru := b.lru[base : base+b.ways]
	old := lru[w]
	for i := range lru {
		if lru[i] < old {
			lru[i]++
		}
	}
	lru[w] = 0
}

// CopyFrom overwrites b with a deep copy of o, reusing b's arrays when
// they are large enough. b may be the zero BTB.
func (b *BTB) CopyFrom(o *BTB) {
	tags, targets, lru := b.tags, b.targets, b.lru
	*b = *o
	b.tags = append(tags[:0], o.tags...)
	b.targets = append(targets[:0], o.targets...)
	b.lru = append(lru[:0], o.lru...)
}

// HitRate returns the fraction of lookups that hit, or 0 before any lookup.
func (b *BTB) HitRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}
