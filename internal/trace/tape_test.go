package trace_test

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tapeWalker drives a tape cursor and a reference generator through the
// same random interleaving of Next and NextWrongPath, comparing every
// instruction.
type tapeWalker struct {
	t   *testing.T
	r   *rand.Rand
	cur *trace.TapeCursor
	ref *trace.Generator
	// spare and spareRef are a used cursor and generator pair that
	// CopyFrom overwrites, so repositioning reuses their buffers.
	spare    *trace.TapeCursor
	spareRef *trace.Generator
}

// step reads one instruction from a random stream and compares it. One
// step in fifty first repositions the pair: half through CloneSource,
// half through CopyFrom into the spare pair.
func (w *tapeWalker) step(label string, i int) {
	switch w.r.Intn(100) {
	case 0:
		w.cur = w.cur.CloneSource().(*trace.TapeCursor)
		w.ref = w.ref.CloneSource().(*trace.Generator)
	case 1:
		w.spare.CopyFrom(w.cur)
		w.spareRef.CopyFrom(w.ref)
		w.cur, w.spare = w.spare, w.cur
		w.ref, w.spareRef = w.spareRef, w.ref
	}
	var got, want isa.Inst
	if w.r.Intn(4) == 0 {
		got, want = w.cur.NextWrongPath(), w.ref.NextWrongPath()
	} else {
		got, want = w.cur.Next(), w.ref.Next()
	}
	if got != want {
		w.t.Fatalf("%s step %d: tape read %+v, generator %+v", label, i, got, want)
	}
}

// TestTapeMatchesGenerator records each workload's streams from past a
// warmup, then replays the sealed tape from positions taken during the
// recording: every cursor must read what a fresh generator at the same
// position generates, through clones and copies, on past the sealed end
// of both streams.
func TestTapeMatchesGenerator(t *testing.T) {
	const warm, record = 3000, 4000
	for pi, p := range workload.All() {
		t.Run(p.Name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(pi) + 1))
			g := trace.New(p)
			ref := trace.New(p)
			for i := 0; i < warm; i++ {
				g.Next()
				ref.Next()
				if i%3 == 0 {
					g.NextWrongPath()
					ref.NextWrongPath()
				}
			}
			tape := trace.NewTape(g, 0)
			w := &tapeWalker{t: t, r: r, cur: tape.Cursor(), ref: ref,
				spare: tape.Cursor(), spareRef: trace.New(p)}
			type mark struct {
				cur *trace.TapeCursor
				ref *trace.Generator
			}
			var marks []mark
			for i := 0; i < record; i++ {
				if r.Intn(500) == 0 {
					marks = append(marks, mark{w.cur.CloneSource().(*trace.TapeCursor),
						w.ref.CloneSource().(*trace.Generator)})
				}
				w.step("recording", i)
			}
			tape.Seal()
			if tape.Len() == 0 || tape.WrongLen() == 0 {
				t.Fatalf("tape recorded %d/%d instructions", tape.Len(), tape.WrongLen())
			}
			marks = append(marks, mark{tape.Cursor(), nil})
			for k, m := range marks {
				if m.ref == nil {
					// Cursor at the tape's start: rewind a generator to it.
					m.ref = trace.New(p)
					for i := 0; i < warm; i++ {
						m.ref.Next()
						if i%3 == 0 {
							m.ref.NextWrongPath()
						}
					}
				}
				w.cur, w.ref = m.cur, m.ref
				var tail uint64
				// Twice the recording crosses the sealed end of both
				// streams from any mark.
				for i := 0; i < 2*record; i++ {
					w.step("replay", i)
				}
				tail += w.cur.TakeTailReads() + w.spare.TakeTailReads()
				if tail == 0 {
					t.Errorf("replay from mark %d never read past the sealed end", k)
				}
			}
		})
	}
}

// TestTapeClonesAreIndependent checks that cursors share only the sealed
// tape: advancing one, past the end too, never moves another.
func TestTapeClonesAreIndependent(t *testing.T) {
	p := workload.All()[0]
	g := trace.New(p)
	tape := trace.NewTape(g, 0)
	c := tape.Cursor()
	for i := 0; i < 100; i++ {
		c.Next()
		c.NextWrongPath()
	}
	tape.Seal()
	a := tape.Cursor()
	b := a.CloneSource().(*trace.TapeCursor)
	for i := 0; i < 300; i++ {
		a.Next()
		a.NextWrongPath()
	}
	ref := trace.New(p)
	for i := 0; i < 300; i++ {
		if got, want := b.Next(), ref.Next(); got != want {
			t.Fatalf("clone's instruction %d moved: %+v, want %+v", i, got, want)
		}
	}
}
