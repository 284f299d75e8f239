// Package cache models the memory hierarchy of the paper's Table 1: 64KB
// 2-way L1 instruction and data caches with 64-byte lines and 3-cycle hits,
// a unified 2MB 4-way L2 with 12-cycle hits, 200-cycle main memory, 32
// 8-target MSHRs, and 4 memory ports.
//
// The model is a timing model, not a functional one: accesses return the
// cycle at which data becomes available. Misses are non-blocking through a
// miss status holding register (MSHR) file; secondary misses to an
// outstanding line merge into the primary miss's MSHR. Structural refusal
// (no port, no MSHR, no target slot) is reported to the pipeline, which
// retries the access on a later cycle, exactly as sim-outorder does.
package cache

import "fmt"

// Cache is one level of set-associative cache with true-LRU replacement.
// It tracks hit/miss statistics; timing is composed by Hierarchy.
type Cache struct {
	name     string
	sets     int
	ways     int
	lineBits uint
	setMask  uint64
	setShift uint

	// tags, lru and dirty are flat set-major arrays indexed set*ways+way,
	// so a checkpoint copies three slices instead of three per set.
	tags  []uint64 // 0 = invalid (tags are forced nonzero)
	lru   []uint8
	dirty []bool

	accesses  uint64
	misses    uint64
	evictions uint64
}

// NewCache builds a cache of size bytes, assoc ways, and lineSize-byte
// lines. size must be divisible by assoc*lineSize and the resulting set
// count must be a power of two.
func NewCache(name string, size, assoc, lineSize int) *Cache {
	if size <= 0 || assoc <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	if lineSize&(lineSize-1) != 0 {
		panic("cache: line size must be a power of two")
	}
	if size%(assoc*lineSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by assoc*line %d", name, size, assoc*lineSize))
	}
	sets := size / (assoc * lineSize)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	setShift := uint(0)
	for 1<<setShift < sets {
		setShift++
	}
	c := &Cache{
		name:     name,
		sets:     sets,
		ways:     assoc,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		setShift: setShift,
	}
	c.tags = make([]uint64, sets*assoc)
	c.lru = make([]uint8, sets*assoc)
	c.dirty = make([]bool, sets*assoc)
	for i := range c.lru {
		c.lru[i] = uint8(i % assoc)
	}
	return c
}

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineBits << c.lineBits }

func (c *Cache) split(addr uint64) (set uint64, tag uint64) {
	line := addr >> c.lineBits
	return line & c.setMask, (line >> c.setShift) | 1<<63
}

// base returns the first flat index of set's ways.
func (c *Cache) base(set uint64) int { return int(set) * c.ways }

// Lookup probes the cache without filling. It updates LRU state and the
// hit/miss statistics.
func (c *Cache) Lookup(addr uint64, write bool) bool {
	c.accesses++
	set, tag := c.split(addr)
	b := c.base(set)
	for w := 0; w < c.ways; w++ {
		if c.tags[b+w] == tag {
			c.touch(b, w)
			if write {
				c.dirty[b+w] = true
			}
			return true
		}
	}
	c.misses++
	return false
}

// Probe reports whether addr is present without perturbing LRU or
// statistics. Used by tests and by the hierarchy's inclusion checks.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.split(addr)
	b := c.base(set)
	for w := 0; w < c.ways; w++ {
		if c.tags[b+w] == tag {
			return true
		}
	}
	return false
}

// Fill installs addr's line, evicting the LRU way if needed. It returns the
// evicted line's address and whether an eviction of a valid (and dirty, if
// dirtyOnly) line occurred.
func (c *Cache) Fill(addr uint64, write bool) (victim uint64, dirtyEvict bool) {
	set, tag := c.split(addr)
	b := c.base(set)
	victimWay := 0
	for w := 0; w < c.ways; w++ {
		if c.tags[b+w] == tag {
			// Already present (raced fills are benign).
			c.touch(b, w)
			if write {
				c.dirty[b+w] = true
			}
			return 0, false
		}
		if c.lru[b+w] > c.lru[b+victimWay] {
			victimWay = w
		}
	}
	oldTag := c.tags[b+victimWay]
	wasDirty := c.dirty[b+victimWay]
	if oldTag != 0 {
		c.evictions++
		victim = c.reconstruct(set, oldTag)
		dirtyEvict = wasDirty
	}
	c.tags[b+victimWay] = tag
	c.dirty[b+victimWay] = write
	c.touch(b, victimWay)
	return victim, dirtyEvict
}

// reconstruct rebuilds a line address from set and stored tag.
func (c *Cache) reconstruct(set uint64, tag uint64) uint64 {
	line := (tag&^(uint64(1)<<63))<<c.setShift | set
	return line << c.lineBits
}

// touch marks way w of the set starting at flat index b most recently used.
func (c *Cache) touch(b, w int) {
	lru := c.lru[b : b+c.ways]
	old := lru[w]
	for i := range lru {
		if lru[i] < old {
			lru[i]++
		}
	}
	lru[w] = 0
}

// CopyFrom overwrites c with a deep copy of o, reusing c's arrays when
// they are large enough, so restoring a checkpoint into a cache of the
// same geometry allocates nothing. c may be the zero Cache.
func (c *Cache) CopyFrom(o *Cache) {
	tags, lru, dirty := c.tags, c.lru, c.dirty
	*c = *o
	c.tags = append(tags[:0], o.tags...)
	c.lru = append(lru[:0], o.lru...)
	c.dirty = append(dirty[:0], o.dirty...)
}

// Stats returns accesses, misses, and evictions.
func (c *Cache) Stats() (accesses, misses, evictions uint64) {
	return c.accesses, c.misses, c.evictions
}

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// ResetStats zeroes the hit/miss counters without touching cache contents.
func (c *Cache) ResetStats() { c.accesses, c.misses, c.evictions = 0, 0, 0 }

// addLookups adds k repetitions of (accesses, misses) deltas without
// touching contents or LRU state — re-probes of the same blocked line are
// idempotent on tag state, so replaying their counts is all a skipped
// retry cycle needs.
func (c *Cache) addLookups(accesses, misses, k uint64) {
	c.accesses += accesses * k
	c.misses += misses * k
}
