package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestCaptureAndReplay(t *testing.T) {
	g := New(testProfile())
	rec, err := Capture(g, 5000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 5000 || rec.WrongLen() != 1000 {
		t.Fatalf("lengths = %d/%d", rec.Len(), rec.WrongLen())
	}
	// Replay must reproduce the captured stream exactly.
	ref := New(testProfile())
	for i := 0; i < 5000; i++ {
		if got, want := rec.Next(), ref.Next(); got != want {
			t.Fatalf("replay diverged at %d", i)
		}
	}
	// Wrap-around: the 5001st instruction is the first again.
	first := New(testProfile()).Next()
	if got := rec.Next(); got != first {
		t.Fatalf("wrap-around broken: %v vs %v", got, first)
	}
}

func TestCaptureRejectsEmpty(t *testing.T) {
	if _, err := Capture(New(testProfile()), 0, 0); err == nil {
		t.Fatal("empty capture accepted")
	}
}

func TestRecordingReset(t *testing.T) {
	rec, _ := Capture(New(testProfile()), 100, 10)
	a := rec.Next()
	rec.Next()
	rec.Reset()
	if got := rec.Next(); got != a {
		t.Fatal("Reset did not rewind")
	}
}

func TestRecordingNoWrongPathFallback(t *testing.T) {
	rec, _ := Capture(New(testProfile()), 10, 0)
	in := rec.NextWrongPath()
	if err := in.Validate(); err != nil {
		t.Fatalf("fallback instruction invalid: %v", err)
	}
	if in.Class.IsMem() || in.IsBranch() {
		t.Fatal("fallback must be a plain ALU op")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rec, err := Capture(New(testProfile()), 3000, 500)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := rec.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(len(traceMagic) + 8 + (3000+500)*fullRecordBytes)
	if n != wantBytes || int64(buf.Len()) != wantBytes {
		t.Fatalf("wrote %d bytes, want %d", n, wantBytes)
	}

	got, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rec.Len() || got.WrongLen() != rec.WrongLen() {
		t.Fatal("lengths changed in round trip")
	}
	for i := 0; i < rec.Len(); i++ {
		a, b := rec.Next(), got.Next()
		if a != b {
			t.Fatalf("record %d changed in round trip:\n%v\n%v", i, a, b)
		}
	}
	for i := 0; i < rec.WrongLen(); i++ {
		if rec.NextWrongPath() != got.NextWrongPath() {
			t.Fatalf("wrong-path record %d changed in round trip", i)
		}
	}
}

func TestRecordFieldFidelity(t *testing.T) {
	// Every field, including branch metadata, must survive the 29-byte
	// record encoding.
	cases := []isa.Inst{
		{PC: 0xdeadbeef0, Class: isa.OpFDiv, Dest: 100, Src1: 7, Src2: isa.RegNone},
		{PC: 0x400000, Class: isa.OpLoad, Dest: 12, Src1: 13, Src2: isa.RegNone, Addr: 0x12345678},
		{PC: 0x400004, Class: isa.OpBranch, BranchKind: isa.BranchIndirect,
			Dest: isa.RegNone, Src1: 3, Src2: isa.RegNone, Taken: true, Target: 0x500000},
		{PC: 0x400008, Class: isa.OpBranch, BranchKind: isa.BranchCond,
			Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone, Taken: false, Target: 0x40000c},
	}
	var buf [fullRecordBytes]byte
	for i, in := range cases {
		putRecord(buf[:], in)
		if got := getRecord(buf[:]); got != in {
			t.Errorf("case %d: %+v -> %+v", i, in, got)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadRecording(strings.NewReader("not a trace file at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadRecording(strings.NewReader("SHRECTR1")); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Valid header, truncated body.
	rec, _ := Capture(New(testProfile()), 100, 0)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadRecording(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// FuzzReadRecording feeds arbitrary bytes to the trace decoder: it must
// never panic, and whatever it accepts must write back byte for byte.
// The committed corpus holds a valid capture, a truncated one, and a
// header claiming 2^30 records of each stream.
func FuzzReadRecording(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadRecording(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("%d accepted bytes wrote back as %d different ones", len(data), buf.Len())
		}
	})
}

// TestReadRecordingTrustsNoHeader pins the decoder's memory to the bytes
// it is given: a header claiming 2^30 records over one real record fails
// without reserving room for the claim.
func TestReadRecordingTrustsNoHeader(t *testing.T) {
	rec, err := Capture(New(testProfile()), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint32(data[len(traceMagic):], 1<<30)
	binary.LittleEndian.PutUint32(data[len(traceMagic)+4:], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadRecording(bytes.NewReader(data)); err == nil {
		t.Fatal("a header claiming more records than the file holds was accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("decoding %d bytes allocated %d bytes", len(data), got)
	}
}

func TestReadRejectsTrailingData(t *testing.T) {
	rec, err := Capture(New(testProfile()), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecording(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("valid capture rejected: %v", err)
	}
	buf.WriteByte(0)
	if _, err := ReadRecording(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
