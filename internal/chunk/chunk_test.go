package chunk

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randomEntries(rng *rand.Rand, n int) []Entry {
	out := make([]Entry, n)
	ts := uint64(0)
	for i := range out {
		ts += uint64(rng.Intn(1000))
		out[i] = Entry{
			Size:   uint64(rng.Intn(1 << 20)),
			TS:     ts,
			Reason: Reason(1 + rng.Intn(int(NumReasons)-1)),
		}
		if rng.Intn(10) == 0 {
			out[i].RepResidue = uint64(1 + rng.Intn(1<<16))
		}
	}
	return out
}

func TestRoundTripAllEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	entries := randomEntries(rng, 500)
	for _, enc := range Encodings() {
		var buf []byte
		var prev *Entry
		for i := range entries {
			buf = enc.Append(buf, entries[i], prev)
			prev = &entries[i]
		}
		pos := 0
		prev = nil
		for i := range entries {
			e, n, err := enc.Decode(buf[pos:], prev)
			if err != nil {
				t.Fatalf("%s: decode entry %d: %v", enc.Name(), i, err)
			}
			if e != entries[i] {
				t.Fatalf("%s: entry %d = %v, want %v", enc.Name(), i, e, entries[i])
			}
			pos += n
			prev = &entries[i]
		}
		if pos != len(buf) {
			t.Errorf("%s: %d bytes left over", enc.Name(), len(buf)-pos)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	for _, enc := range Encodings() {
		enc := enc
		f := func(size, ts uint64, reason uint8, residue uint32) bool {
			e := Entry{
				Size:       size % (1 << 40),
				TS:         ts % (1 << 40),
				Reason:     Reason(reason % uint8(NumReasons)),
				RepResidue: uint64(residue % (1 << 20)),
			}
			buf := enc.Append(nil, e, nil)
			got, n, err := enc.Decode(buf, nil)
			return err == nil && n == len(buf) && got == e
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", enc.Name(), err)
		}
	}
}

func TestFixedEntrySizeConstant(t *testing.T) {
	e1 := Entry{Size: 1, TS: 1, Reason: ReasonSyscall}
	e2 := Entry{Size: 1 << 40, TS: 1 << 40, Reason: ReasonFlush, RepResidue: 1 << 20}
	if n := len(Fixed{}.Append(nil, e1, nil)); n != 16 {
		t.Errorf("small fixed entry = %d bytes, want 16", n)
	}
	if n := len(Fixed{}.Append(nil, e2, nil)); n != 16 {
		t.Errorf("large fixed entry = %d bytes, want 16", n)
	}
}

func TestDeltaSmallerThanVarForCloseTimestamps(t *testing.T) {
	// Large absolute timestamps, small deltas: the paper's compression
	// case. Delta must beat Var must beat Fixed.
	log := &Log{Thread: 0}
	ts := uint64(1 << 33)
	for i := 0; i < 1000; i++ {
		ts += uint64(1 + i%3)
		log.Append(Entry{Size: uint64(100 + i%50), TS: ts, Reason: ReasonCTROverflow})
	}
	fixed := log.EncodedSize(Fixed{})
	vr := log.EncodedSize(Var{})
	delta := log.EncodedSize(Delta{})
	if !(delta < vr && vr < fixed) {
		t.Errorf("sizes: delta=%d var=%d fixed=%d; want delta < var < fixed", delta, vr, fixed)
	}
}

func TestFixedOverflowPanics(t *testing.T) {
	cases := []Entry{
		{Size: 1 << 49},
		{TS: 1 << 49},
		{RepResidue: 1 << 25},
	}
	for _, e := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("entry %v did not panic", e)
				}
			}()
			Fixed{}.Append(nil, e, nil)
		}()
	}
}

func TestDeltaNonMonotonicPanics(t *testing.T) {
	prev := Entry{TS: 100}
	defer func() {
		if recover() == nil {
			t.Error("backward timestamp did not panic")
		}
	}()
	Delta{}.Append(nil, Entry{TS: 99}, &prev)
}

func TestDecodeTruncated(t *testing.T) {
	e := Entry{Size: 300, TS: 1 << 20, Reason: ReasonSyscall, RepResidue: 5}
	for _, enc := range Encodings() {
		buf := enc.Append(nil, e, nil)
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := enc.Decode(buf[:cut], nil); err == nil {
				t.Errorf("%s: decode of %d/%d bytes succeeded", enc.Name(), cut, len(buf))
			}
		}
	}
}

func TestDecodeBadReason(t *testing.T) {
	bad := Fixed{}.Append(nil, Entry{Size: 1, TS: 1}, nil)
	bad[6] = 0xff // reason byte within the packed word
	if _, _, err := (Fixed{}).Decode(bad, nil); err == nil {
		t.Error("fixed decode accepted invalid reason")
	}
	if _, _, err := (Var{}).Decode([]byte{0x7f, 0x01, 0x01}, nil); err == nil {
		t.Error("var decode accepted invalid reason")
	}
}

func TestLogMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, enc := range Encodings() {
		l := &Log{Thread: 7, Entries: randomEntries(rng, 200)}
		data := l.Marshal(enc)
		got, err := UnmarshalLog(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", enc.Name(), err)
		}
		if got.Thread != 7 || len(got.Entries) != len(l.Entries) {
			t.Fatalf("%s: header mismatch: %d entries thread %d", enc.Name(), len(got.Entries), got.Thread)
		}
		for i := range l.Entries {
			if got.Entries[i] != l.Entries[i] {
				t.Fatalf("%s: entry %d = %v, want %v", enc.Name(), i, got.Entries[i], l.Entries[i])
			}
		}
	}
}

func TestLogMarshalEmpty(t *testing.T) {
	l := &Log{Thread: 3}
	got, err := UnmarshalLog(l.Marshal(Delta{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Thread != 3 {
		t.Errorf("got %d entries, thread %d", got.Len(), got.Thread)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("QR"),
		[]byte("NOPE\x01\x01\x00\x00"),
		[]byte("QRCL\x09\x01\x00\x00"),        // bad version
		[]byte("QRCL\x01\x09\x00\x00"),        // bad encoding
		[]byte("QRCL\x01\x01\x00\x05"),        // count 5, no entries
		append((&Log{}).Marshal(Var{}), 0xff), // trailing byte
	}
	for i, c := range cases {
		if _, err := UnmarshalLog(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestTotalInstructions(t *testing.T) {
	l := &Log{}
	l.Append(Entry{Size: 10, TS: 1, Reason: ReasonSyscall})
	l.Append(Entry{Size: 20, TS: 2, Reason: ReasonFlush})
	if got := l.TotalInstructions(); got != 30 {
		t.Errorf("TotalInstructions = %d, want 30", got)
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
}

func TestReasonStrings(t *testing.T) {
	for r := Reason(0); r < NumReasons; r++ {
		if s := r.String(); s == "" || strings.HasPrefix(s, "reason(") {
			t.Errorf("Reason(%d) has no name", r)
		}
	}
	if !strings.HasPrefix(Reason(200).String(), "reason(") {
		t.Error("out-of-range reason should render numerically")
	}
}

func TestIsConflict(t *testing.T) {
	conflicts := map[Reason]bool{
		ReasonConflictRAW: true, ReasonConflictWAR: true, ReasonConflictWAW: true,
		ReasonSyscall: false, ReasonFlush: false, ReasonEviction: false,
	}
	for r, want := range conflicts {
		if r.IsConflict() != want {
			t.Errorf("%v.IsConflict() = %v, want %v", r, !want, want)
		}
	}
}

func TestEntryString(t *testing.T) {
	e := Entry{Size: 5, TS: 9, Reason: ReasonSyscall}
	if s := e.String(); !strings.Contains(s, "size=5") || !strings.Contains(s, "syscall") {
		t.Errorf("String = %q", s)
	}
	e.RepResidue = 3
	if s := e.String(); !strings.Contains(s, "rep=3") {
		t.Errorf("String with residue = %q", s)
	}
}

func TestByID(t *testing.T) {
	for _, enc := range Encodings() {
		got, err := ByID(enc.ID())
		if err != nil || got.Name() != enc.Name() {
			t.Errorf("ByID(%d) = %v, %v", enc.ID(), got, err)
		}
	}
	if _, err := ByID(0); err == nil {
		t.Error("ByID(0) should fail")
	}
}
