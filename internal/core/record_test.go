package core

import (
	"testing"
	"testing/quick"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/relation"
)

// The algorithms' record shapes — tagged, flagged, vertex-flagged, flag
// vector, partial assignment and output row — all round-trip through the
// one relation record format.

func TestTaggedRoundTrip(t *testing.T) {
	f := func(rel uint8, id int64, s, l uint16) bool {
		tu := mkTuple(id, interval.New(int64(s), int64(s)+int64(l)))
		h, got, err := relation.DecodeRecord(encodeTagged(int(rel), tu))
		return err == nil && h.Rel == int(rel) && !h.Flagged() && got.ID == id && got.Attrs[0] == tu.Attrs[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlaggedRoundTrip(t *testing.T) {
	f := func(rel uint8, repl bool, id int64, s, l uint16) bool {
		tu := mkTuple(id, interval.New(int64(s), int64(s)+int64(l)))
		r, gotRepl, got, err := decodeFlagged(encodeFlagged(int(rel), 0, repl, tu))
		return err == nil && r == int(rel) && gotRepl == repl && got.ID == id && got.Attrs[0] == tu.Attrs[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVertexFlaggedRoundTrip(t *testing.T) {
	f := func(rel, attr uint8, repl bool, id int64, s, l uint16) bool {
		tu := mkTuple(id, interval.New(int64(s), int64(s)+int64(l)))
		h, got, err := relation.DecodeRecord(encodeFlagged(int(rel), int(attr), repl, tu))
		return err == nil && h.Rel == int(rel) && h.Attr == int(attr) && h.Flagged() == repl && got.ID == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	tu := relation.Tuple{ID: 42, Attrs: []interval.Interval{
		interval.New(0, 5), interval.New(7, 7),
	}}
	long := make([]bool, 70)
	long[69] = true
	for _, flags := range [][]bool{{}, {true}, {false, true, false}, long} {
		h, got, err := relation.DecodeRecord(relation.EncodeRecord(relation.Header{Rel: 3, Flags: flags}, tu))
		if err != nil || h.Rel != 3 || got.ID != 42 || len(h.Flags) != len(flags) {
			t.Fatalf("vector round trip failed: %+v %v %v", h, got, err)
		}
		for i := range flags {
			if h.Flags[i] != flags[i] {
				t.Fatalf("flag %d mismatch", i)
			}
		}
	}
}

func TestDecodeTaggedErrors(t *testing.T) {
	rec := encodeFlagged(1, 0, true, mkTuple(5, interval.New(0, 9)))
	for _, s := range []string{"", rec[:len(rec)-1], rec + "\x00"} {
		if _, _, _, err := decodeFlagged(s); err == nil {
			t.Errorf("decodeFlagged(%q) succeeded", s)
		}
		if _, err := decodePartial(rec + s[:len(s)/2]); s != "" && err == nil {
			t.Errorf("decodePartial with a cut second record %q succeeded", s)
		}
	}
	var n int64
	tap := flaggedTap(&n)
	tap("\x80")
	tap(encodeTagged(1, mkTuple(5, interval.New(0, 9))))
	tap(rec)
	if n != 1 {
		t.Errorf("flaggedTap counted %d flagged records, want 1", n)
	}
}

func TestPartialRoundTrip(t *testing.T) {
	pa := partialAssignment{
		{rel: 0, tuple: mkTuple(5, interval.New(0, 9))},
		{rel: 2, tuple: mkTuple(7, interval.New(3, 4))},
	}
	got, err := decodePartial(encodePartial(pa))
	if err != nil || len(got) != 2 || got[0].rel != 0 || got[1].tuple.ID != 7 {
		t.Fatalf("partial round trip: %v %v", got, err)
	}
	if got.intervalOf(2) != interval.New(3, 4) {
		t.Fatalf("intervalOf(2) = %v", got.intervalOf(2))
	}
}

func TestOutputTupleRoundTrip(t *testing.T) {
	o := OutputTuple{3, -1, 99}
	got, err := relation.DecodeRow(relation.EncodeRow(o))
	if err != nil || DiffRows([]OutputTuple{got}, []OutputTuple{o}) != nil {
		t.Fatalf("output tuple round trip: %v %v", got, err)
	}
	if _, err := relation.DecodeRow("\x80"); err == nil {
		t.Error("truncated output row accepted")
	}
	if k := o.Key(); k != "3,-1,99" {
		t.Errorf("Key() = %q", k)
	}
}
