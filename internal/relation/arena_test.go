package relation

import (
	"testing"

	"intervaljoin/internal/interval"
)

func TestArenaAppendAndAccessors(t *testing.T) {
	var a Arena
	t1 := Tuple{ID: 7, Attrs: []interval.Interval{{Start: 1, End: 5}}}
	t2 := Tuple{ID: -3, Attrs: []interval.Interval{{Start: 0, End: 0}, {Start: -9, End: 9}, {Start: 4, End: 4}}}
	r1 := a.Append(t1)
	r2 := a.Append(t2)
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
	if a.ID(r1) != 7 || a.ID(r2) != -3 {
		t.Fatalf("IDs = %d, %d", a.ID(r1), a.ID(r2))
	}
	if a.Arity(r1) != 1 || a.Arity(r2) != 3 {
		t.Fatalf("arities = %d, %d", a.Arity(r1), a.Arity(r2))
	}
	if got := a.Attr(r2, 1); got != t2.Attrs[1] {
		t.Fatalf("Attr(r2,1) = %v, want %v", got, t2.Attrs[1])
	}
	if a.Start(r1, 0) != 1 || a.End(r1, 0) != 5 {
		t.Fatalf("Start/End(r1,0) = %d,%d", a.Start(r1, 0), a.End(r1, 0))
	}
	for ref, want := range map[int32]Tuple{r1: t1, r2: t2} {
		got := a.Tuple(ref)
		if got.ID != want.ID || len(got.Attrs) != len(want.Attrs) {
			t.Fatalf("Tuple(%d) = %+v, want %+v", ref, got, want)
		}
		for i := range want.Attrs {
			if got.Attrs[i] != want.Attrs[i] {
				t.Fatalf("Tuple(%d).Attrs[%d] = %v, want %v", ref, i, got.Attrs[i], want.Attrs[i])
			}
		}
	}
}

func TestArenaTupleAliasIsCapped(t *testing.T) {
	// The Attrs slice handed out by Tuple must not allow appends to clobber
	// the next tuple's attributes.
	var a Arena
	r1 := a.Append(Tuple{ID: 1, Attrs: []interval.Interval{{Start: 1, End: 2}}})
	a.Append(Tuple{ID: 2, Attrs: []interval.Interval{{Start: 3, End: 4}}})
	tup := a.Tuple(r1)
	_ = append(tup.Attrs, interval.Interval{Start: 99, End: 99})
	if iv := a.Attr(1, 0); iv.Start != 3 || iv.End != 4 {
		t.Fatalf("append through alias clobbered neighbour: %v", iv)
	}
}

func TestArenaReset(t *testing.T) {
	var a Arena
	a.Append(Tuple{ID: 1, Attrs: []interval.Interval{{Start: 1, End: 2}}})
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("Len after Reset = %d", a.Len())
	}
	r := a.Append(Tuple{ID: 5, Attrs: []interval.Interval{{Start: 8, End: 9}}})
	if a.ID(r) != 5 || a.Attr(r, 0) != (interval.Interval{Start: 8, End: 9}) {
		t.Fatalf("append after Reset broken: id=%d attr=%v", a.ID(r), a.Attr(r, 0))
	}
}

func TestArenaAttrPanicsOutOfRange(t *testing.T) {
	var a Arena
	r := a.Append(Tuple{ID: 1, Attrs: []interval.Interval{{Start: 1, End: 2}}})
	defer func() {
		if recover() == nil {
			t.Fatal("Attr out of range did not panic")
		}
	}()
	a.Attr(r, 1)
}

func TestArenaAppendRecordErrorLeavesArenaIntact(t *testing.T) {
	var a Arena
	if _, _, err := a.AppendRecord(EncodeRecord(Header{}, Tuple{ID: 1, Attrs: []interval.Interval{{Start: 2, End: 4}}})); err != nil {
		t.Fatal(err)
	}
	// A two-attribute record cut inside its second attribute: the first
	// attribute decodes before the error and must be rolled back.
	bad := EncodeRecord(Header{}, Tuple{ID: 2, Attrs: []interval.Interval{{Start: 3, End: 5}, {Start: 1000, End: 5000}}})
	if _, _, err := a.AppendRecord(bad[:len(bad)-1]); err == nil {
		t.Fatal("want decode error")
	}
	if a.Len() != 1 {
		t.Fatalf("Len after failed decode = %d, want 1", a.Len())
	}
	r := a.Append(Tuple{ID: 9, Attrs: []interval.Interval{{Start: 6, End: 7}}})
	if a.Attr(r, 0) != (interval.Interval{Start: 6, End: 7}) || a.Arity(r) != 1 {
		t.Fatalf("arena corrupted after failed decode: %v arity %d", a.Attr(r, 0), a.Arity(r))
	}
	if a.Attr(0, 0) != (interval.Interval{Start: 2, End: 4}) {
		t.Fatalf("first tuple corrupted: %v", a.Attr(0, 0))
	}
}
