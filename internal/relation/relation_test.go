package relation

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"intervaljoin/internal/interval"
)

func TestSchemaDefaults(t *testing.T) {
	s := NewSchema("R1")
	if s.Arity() != 1 || s.Attrs[0] != "I" {
		t.Fatalf("default schema = %+v, want single attribute I", s)
	}
	s2 := NewSchema("R2", "I", "A", "B")
	if s2.Arity() != 3 {
		t.Fatalf("arity = %d, want 3", s2.Arity())
	}
	if s2.AttrIndex("A") != 1 || s2.AttrIndex("missing") != -1 {
		t.Error("AttrIndex misbehaves")
	}
}

func TestFromIntervals(t *testing.T) {
	ivs := []interval.Interval{interval.New(0, 5), interval.New(3, 9)}
	r := FromIntervals("R", ivs)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Tuples[1].ID != 1 || r.Tuples[1].Key() != interval.New(3, 9) {
		t.Fatalf("tuple 1 = %+v", r.Tuples[1])
	}
	got := r.Intervals()
	for i := range ivs {
		if got[i] != ivs[i] {
			t.Fatalf("Intervals()[%d] = %v, want %v", i, got[i], ivs[i])
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAppendArityPanics(t *testing.T) {
	r := New(NewSchema("R", "I", "A"))
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	r.Append(interval.New(0, 1))
}

func TestKeyPanicsOnMultiAttr(t *testing.T) {
	tup := Tuple{ID: 0, Attrs: []interval.Interval{interval.New(0, 1), interval.New(2, 3)}}
	defer func() {
		if recover() == nil {
			t.Fatal("Key on 2-attribute tuple did not panic")
		}
	}()
	tup.Key()
}

func TestValidateCatchesDuplicates(t *testing.T) {
	r := New(NewSchema("R"))
	r.Tuples = []Tuple{
		{ID: 1, Attrs: []interval.Interval{interval.New(0, 1)}},
		{ID: 1, Attrs: []interval.Interval{interval.New(2, 3)}},
	}
	if err := r.Validate(); err == nil {
		t.Fatal("duplicate ids not reported")
	}
}

func TestValidateCatchesBadArity(t *testing.T) {
	r := New(NewSchema("R", "I", "A"))
	r.Tuples = []Tuple{{ID: 0, Attrs: []interval.Interval{interval.New(0, 1)}}}
	if err := r.Validate(); err == nil {
		t.Fatal("arity mismatch not reported")
	}
}

// TestEncodeDecodeRoundTrip is the record round-trip property over
// multi-attribute tuples, negative and extreme endpoints and 0–70 flag
// bits (Gen-Matrix vectors may exceed 64), through every decoder.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	point := func() int64 {
		if rng.Intn(3) == 0 {
			return extremes[rng.Intn(len(extremes))]
		}
		return rng.Int63n(1<<40) - 1<<39
	}
	for n := 0; n < 2000; n++ {
		h := Header{Rel: rng.Intn(1 << 10), Attr: rng.Intn(8), Flags: make([]bool, n%71)}
		for i := range h.Flags {
			h.Flags[i] = rng.Intn(2) == 0
		}
		tup := Tuple{ID: point(), Attrs: make([]interval.Interval, 1+rng.Intn(4))}
		for i := range tup.Attrs {
			s, e := point(), point()
			if s > e {
				s, e = e, s
			}
			tup.Attrs[i] = interval.Interval{Start: s, End: e}
		}
		rec := EncodeRecord(h, tup)
		gh, gt, err := DecodeRecord(rec)
		if err != nil || !sameRecord(gh, gt, h, tup) {
			t.Fatalf("DecodeRecord = %+v %+v %v, want %+v %+v", gh, gt, err, h, tup)
		}
		var a Arena
		ah, ref, err := a.AppendRecord(rec)
		if err != nil || !sameRecord(ah, a.Tuple(ref), h, tup) {
			t.Fatalf("Arena.AppendRecord = %+v %+v %v, want %+v %+v", ah, a.Tuple(ref), err, h, tup)
		}
		if iv, err := FirstAttr(rec); err != nil || iv != tup.Attrs[0] {
			t.Fatalf("FirstAttr = %v %v, want %v", iv, err, tup.Attrs[0])
		}
		nh, nt, rest, err := NextRecord(rec + rec)
		if err != nil || rest != rec || !sameRecord(nh, nt, h, tup) {
			t.Fatalf("NextRecord on a concatenation = %+v %+v rest %q %v", nh, nt, rest, err)
		}
		row := []int64{tup.ID, point(), point()}
		if got, err := DecodeRow(EncodeRow(row)); err != nil || !slices.Equal(got, row) {
			t.Fatalf("DecodeRow = %v %v, want %v", got, err, row)
		}
	}
}

func sameRecord(gh Header, gt Tuple, h Header, tup Tuple) bool {
	return gh.Rel == h.Rel && gh.Attr == h.Attr && slices.Equal(gh.Flags, h.Flags) &&
		gt.ID == tup.ID && slices.Equal(gt.Attrs, tup.Attrs)
}

func TestDecodeErrors(t *testing.T) {
	rec := EncodeRecord(Header{Rel: 1, Flags: []bool{true, false, true}}, Tuple{ID: 5, Attrs: []interval.Interval{{Start: 0, End: 1}}})
	for _, s := range []string{
		"",
		rec[:len(rec)-1],             // truncated
		rec + "\x00",                 // trailing byte
		"\x80\x00" + rec[1:],         // non-minimal varint
		"\x01\x00\x03\x0d" + rec[4:], // flag padding bit set
		"\x00\x00\x00\x0a\x01\x00\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01", // end past MaxInt64
	} {
		if _, _, err := DecodeRecord(s); err == nil {
			t.Errorf("DecodeRecord(%q) succeeded, want error", s)
		}
	}
}

func TestBounds(t *testing.T) {
	r1 := FromIntervals("R1", []interval.Interval{interval.New(5, 20)})
	r2 := FromIntervals("R2", []interval.Interval{interval.New(-3, 7), interval.New(10, 90)})
	t0, tn, ok := Bounds(r1, r2)
	if !ok || t0 != -3 || tn != 91 {
		t.Fatalf("Bounds = [%d,%d) ok=%v, want [-3,91) true", t0, tn, ok)
	}
	if _, _, ok := Bounds(New(NewSchema("E"))); ok {
		t.Fatal("Bounds of empty relation reported ok")
	}
}

func TestAttrBounds(t *testing.T) {
	r := New(NewSchema("R", "I", "A"))
	r.Append(interval.New(0, 10), interval.New(100, 100))
	r.Append(interval.New(5, 7), interval.New(42, 42))
	t0, tn, ok := AttrBounds(r, 1)
	if !ok || t0 != 42 || tn != 101 {
		t.Fatalf("AttrBounds = [%d,%d) ok=%v", t0, tn, ok)
	}
}

func TestBoundsCoverEverythingQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(50)
		ivs := make([]interval.Interval, n)
		for j := range ivs {
			s := rng.Int63n(1000) - 500
			ivs[j] = interval.New(s, s+rng.Int63n(100))
		}
		r := FromIntervals("R", ivs)
		t0, tn, ok := Bounds(r)
		if !ok {
			t.Fatal("Bounds not ok for non-empty relation")
		}
		for _, iv := range ivs {
			if iv.Start < t0 || iv.End >= tn {
				t.Fatalf("interval %v outside bounds [%d,%d)", iv, t0, tn)
			}
		}
	}
}
