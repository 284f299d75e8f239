package trace

import "repro/internal/isa"

// Tape is an append-only record of one generator's correct-path and
// wrong-path streams from the point it was made, stored as flat
// struct-of-arrays columns: 20 bytes per instruction against isa.Inst's
// 48. Fault-campaign trials over the same fault-free run read their
// instructions from the tape instead of regenerating them.
//
// A tape fills while it is unsealed: a cursor that reads at the end of a
// stream extends it from the generator the tape owns. Until Seal, the
// tape and all its cursors must be used from one goroutine. Seal makes
// the tape immutable and safe to share: a sealed tape's cursors may run
// on any goroutines, and a cursor that reads past the sealed end of a
// stream continues from its own copy of the generator, which stands at
// the end of both streams and shares the block layout.
type Tape struct {
	gen    *Generator
	sealed bool
	insts  tapeStream
	wrong  tapeStream
}

// tapeStream is one recorded stream. Each instruction keeps its PC, one
// value word (the effective address of a load or store, the target of
// anything else — a generated instruction never carries both), and a
// meta word packing the class, branch kind, outcome and registers.
type tapeStream struct {
	pc   []uint64
	val  []uint64
	meta []uint32
}

// Meta word layout: class in bits 0-3, branch kind in 4-5, taken in 6,
// then Dest, Src1 and Src2 one byte each from bit 8.
const (
	metaKindShift = 4
	metaTaken     = 1 << 6
)

// NewTape starts recording g's streams from their current positions. The
// tape takes ownership of g: nothing else may advance it. hint is the
// expected correct-path length, reserved up front so the columns do not
// grow through repeated reallocation.
func NewTape(g *Generator, hint int) *Tape {
	t := &Tape{gen: g}
	if hint > 0 {
		t.insts = tapeStream{
			pc:   make([]uint64, 0, hint),
			val:  make([]uint64, 0, hint),
			meta: make([]uint32, 0, hint),
		}
	}
	return t
}

// Cursor returns a cursor at the start of the tape.
func (t *Tape) Cursor() *TapeCursor { return &TapeCursor{t: t} }

// Seal ends recording. The tape is immutable from then on.
func (t *Tape) Seal() { t.sealed = true }

// Len returns the number of recorded correct-path instructions.
func (t *Tape) Len() int { return len(t.insts.meta) }

// WrongLen returns the number of recorded wrong-path instructions.
func (t *Tape) WrongLen() int { return len(t.wrong.meta) }

func (s *tapeStream) add(in isa.Inst) {
	val := in.Target
	if in.Class.IsMem() {
		val = in.Addr
		if in.Target != 0 {
			panic("trace: tape cannot record a memory instruction with a branch target")
		}
	} else if in.Addr != 0 {
		panic("trace: tape cannot record a non-memory instruction with an address")
	}
	m := uint32(in.Class) | uint32(in.BranchKind)<<metaKindShift |
		uint32(uint8(in.Dest))<<8 | uint32(uint8(in.Src1))<<16 | uint32(uint8(in.Src2))<<24
	if in.Taken {
		m |= metaTaken
	}
	s.pc = append(s.pc, in.PC)
	s.val = append(s.val, val)
	s.meta = append(s.meta, m)
}

func (s *tapeStream) at(i int) isa.Inst {
	m := s.meta[i]
	in := isa.Inst{
		PC:         s.pc[i],
		Class:      isa.OpClass(m & 15),
		BranchKind: isa.BranchKind(m >> metaKindShift & 3),
		Taken:      m&metaTaken != 0,
		Dest:       int8(m >> 8),
		Src1:       int8(m >> 16),
		Src2:       int8(m >> 24),
	}
	if in.Class.IsMem() {
		in.Addr = s.val[i]
	} else {
		in.Target = s.val[i]
	}
	return in
}

// TapeCursor reads a tape's streams from a position (i, j): the next
// correct-path and wrong-path instruction indices. It is a CloneSource,
// and copying one is copying two integers until it reads past the sealed
// end of the tape.
type TapeCursor struct {
	t    *Tape
	i, j int
	// tail continues both streams past the sealed end when own is set: a
	// private copy of the tape's generator, taken at the first read past
	// the end and kept (as a buffer) when own is cleared.
	tail *Generator
	own  bool
	// tailReads counts instructions served from tail.
	tailReads uint64
}

// Next implements Source.
func (c *TapeCursor) Next() isa.Inst {
	s := &c.t.insts
	if c.i < len(s.meta) {
		in := s.at(c.i)
		c.i++
		return in
	}
	if !c.t.sealed {
		in := c.t.gen.Next()
		s.add(in)
		c.i++
		return in
	}
	return c.pastEnd().Next()
}

// NextWrongPath implements Source.
func (c *TapeCursor) NextWrongPath() isa.Inst {
	s := &c.t.wrong
	if c.j < len(s.meta) {
		in := s.at(c.j)
		c.j++
		return in
	}
	if !c.t.sealed {
		in := c.t.gen.NextWrongPath()
		s.add(in)
		c.j++
		return in
	}
	return c.pastEnd().NextWrongPath()
}

// pastEnd returns the generator continuing the cursor's streams past the
// sealed end, copying the tape's generator on first use. The copy stands
// at the end of both streams; the two streams are independent, so reads
// of either one that has not reached the end still come from the tape.
func (c *TapeCursor) pastEnd() *Generator {
	if !c.own {
		if c.tail == nil {
			c.tail = new(Generator)
		}
		c.tail.CopyFrom(c.t.gen)
		c.own = true
	}
	c.tailReads++
	return c.tail
}

// CloneSource implements CloneSource.
func (c *TapeCursor) CloneSource() Source {
	n := &TapeCursor{}
	n.CopyFrom(c)
	return n
}

// CopyFrom repositions c at o's position, reusing c's tail buffer, so
// restoring a checkpoint over a tape allocates nothing. c keeps its own
// tail-read count, which therefore totals a run across rollbacks.
func (c *TapeCursor) CopyFrom(o *TapeCursor) {
	c.t, c.i, c.j, c.own = o.t, o.i, o.j, o.own
	if o.own {
		if c.tail == nil {
			c.tail = new(Generator)
		}
		c.tail.CopyFrom(o.tail)
	}
}

// TakeTailReads returns how many instructions the cursor has served past
// the sealed end of its tape since the last call, and resets the count.
func (c *TapeCursor) TakeTailReads() uint64 {
	n := c.tailReads
	c.tailReads = 0
	return n
}
