package cache

// Stride prefetcher: a reference-prediction table that detects constant
// strides in the data-access stream and prefetches ahead into the L2 (and
// optionally L1). It is off by default — the paper's machines do not
// prefetch — but the streaming floating-point workloads make it an
// interesting what-if: prefetching weakens the C-factor because the
// out-of-order window no longer has to expose the memory-level
// parallelism by itself.
//
// The design is a classic Chen & Baer RPT: entries are indexed by a hash
// of the access address region, track the last address and stride, and
// issue a prefetch for addr+degree*stride once the same stride is seen
// twice.

// PrefetchConfig configures the stride prefetcher.
type PrefetchConfig struct {
	// Enable turns the prefetcher on.
	Enable bool
	// TableEntries is the reference-prediction table size (power of two).
	TableEntries int
	// Degree is how many lines ahead to prefetch.
	Degree int
}

// DefaultPrefetchConfig returns a modest 256-entry, degree-2 prefetcher
// (disabled; set Enable to use it).
func DefaultPrefetchConfig() PrefetchConfig {
	return PrefetchConfig{TableEntries: 256, Degree: 2}
}

type rptEntry struct {
	tag      uint64
	lastAddr uint64
	// dir is the detected stream direction in lines (+64/-64 canonical).
	dir int64
	// state: 0 = initial, 1 = direction candidate, >= 2 = confirmed
	state uint8
}

// jitterLines is the out-of-order tolerance: the issue stage reorders the
// demand stream within the instruction window, so consecutive observations
// of a streaming region arrive shuffled by up to the window's worth of
// lines. Movements within the jitter window count toward the direction;
// larger jumps reset the entry.
const jitterLines = 32

type prefetcher struct {
	cfg     PrefetchConfig
	entries []rptEntry
	mask    uint64

	issued  uint64
	useful  uint64 // lines prefetched that were later demanded
	tracked map[uint64]bool
}

func newPrefetcher(cfg PrefetchConfig) *prefetcher {
	n := cfg.TableEntries
	if n <= 0 || n&(n-1) != 0 {
		panic("cache: prefetcher table entries must be a nonzero power of two")
	}
	if cfg.Degree <= 0 {
		panic("cache: prefetch degree must be positive")
	}
	return &prefetcher{
		cfg:     cfg,
		entries: make([]rptEntry, n),
		mask:    uint64(n - 1),
		tracked: make(map[uint64]bool),
	}
}

// observe records a demand access (by its line address) and returns the
// line addresses to prefetch (nil when no confirmed stride). Tracking is
// line-granular: sub-line strides collapse onto the same line and are
// ignored until the stream crosses into a new line, so small-stride
// streams still confirm a one-line stride and prefetch usefully ahead.
func (p *prefetcher) observe(lineAddr uint64) []uint64 {
	// Index by the 4KB region so independent streams map to distinct
	// entries.
	region := lineAddr >> 12
	idx := (region ^ region>>8 ^ region>>16) & p.mask
	e := &p.entries[idx]
	tag := region | 1<<63

	if e.tag != tag {
		*e = rptEntry{tag: tag, lastAddr: lineAddr}
		return nil
	}
	const lineBytes = 64
	delta := int64(lineAddr) - int64(e.lastAddr)
	switch {
	case delta == 0:
		// Same line again: not a new observation.
		return nil
	case delta > 0 && delta <= jitterLines*lineBytes:
		if e.dir > 0 && e.state < 250 {
			e.state++
		} else {
			e.dir = lineBytes
			e.state = 1
		}
		if delta > lineBytes {
			// Keep the frontier: only advance lastAddr forward.
			e.lastAddr = lineAddr
		} else {
			e.lastAddr = lineAddr
		}
	case delta < 0 && -delta <= jitterLines*lineBytes:
		if e.dir < 0 && e.state < 250 {
			e.state++
		} else {
			e.dir = -lineBytes
			e.state = 1
		}
		e.lastAddr = lineAddr
	default:
		*e = rptEntry{tag: tag, lastAddr: lineAddr}
		return nil
	}
	if e.state < 2 {
		return nil
	}

	out := make([]uint64, 0, p.cfg.Degree)
	next := int64(lineAddr)
	for i := 0; i < p.cfg.Degree; i++ {
		next += e.dir
		if next < 0 {
			break
		}
		out = append(out, uint64(next))
	}
	return out
}

// Stats returns issued prefetches and the number later demanded.
func (p *prefetcher) Stats() (issued, useful uint64) { return p.issued, p.useful }

// copyFrom overwrites p with a deep copy of o's reference-prediction
// table and tracking state, reusing p's table and map. p may be the zero
// prefetcher.
func (p *prefetcher) copyFrom(o *prefetcher) {
	entries, tracked := p.entries, p.tracked
	*p = *o
	p.entries = append(entries[:0], o.entries...)
	if tracked == nil {
		tracked = make(map[uint64]bool, len(o.tracked))
	}
	clear(tracked)
	for line, v := range o.tracked {
		tracked[line] = v
	}
	p.tracked = tracked
}
