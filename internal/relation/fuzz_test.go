package relation

import (
	"math"
	"strings"
	"testing"

	"intervaljoin/internal/interval"
)

// FuzzRecord feeds the record decoders arbitrary bytes: they must never
// panic, and must either reject the input or return a record (or row) that
// re-encodes to exactly the input bytes. A failed arena decode must leave
// the arena as it was.
func FuzzRecord(f *testing.F) {
	for _, seed := range []string{
		EncodeRecord(Header{}, Tuple{ID: 0, Attrs: []interval.Interval{{Start: 1, End: 5}}}),
		EncodeRecord(Header{Rel: 2, Attr: 1, Flags: []bool{true}}, Tuple{ID: -7, Attrs: []interval.Interval{{Start: -3, End: 9}, {Start: 4, End: 4}}}),
		EncodeRecord(Header{Flags: make([]bool, 70)}, Tuple{ID: math.MaxInt64, Attrs: []interval.Interval{{Start: math.MinInt64, End: math.MaxInt64}}}),
		EncodeRow([]int64{1, -2, math.MinInt64}),
		"",
		"\x00",
		"\x80\x00",
		"\x00\x00\x09\xff\x00\x00",
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		h, tup, err := DecodeRecord(input)
		if err == nil {
			if back := EncodeRecord(h, tup); back != input {
				t.Fatalf("DecodeRecord(%q) re-encodes to %q", input, back)
			}
		}
		var a Arena
		_, pre, perr := a.AppendRecord(EncodeRecord(Header{}, Tuple{ID: 11, Attrs: []interval.Interval{{Start: 3, End: 9}}}))
		if perr != nil {
			t.Fatal(perr)
		}
		ids, base, flat := len(a.ids), len(a.base), len(a.flat)
		ah, ref, aerr := a.AppendRecord(input)
		if (aerr == nil) != (err == nil) {
			t.Fatalf("arena err %v, DecodeRecord err %v on %q", aerr, err, input)
		}
		if aerr != nil {
			if len(a.ids) != ids || len(a.base) != base || len(a.flat) != flat {
				t.Fatalf("failed decode of %q changed the arena", input)
			}
		} else if back := EncodeRecord(ah, a.Tuple(ref)); back != input {
			t.Fatalf("arena decode of %q re-encodes to %q", input, back)
		}
		if a.ID(pre) != 11 || a.Attr(pre, 0) != (interval.Interval{Start: 3, End: 9}) {
			t.Fatalf("decode of %q corrupted earlier arena contents", input)
		}
		if row, err := DecodeRow(input); err == nil {
			if back := EncodeRow(row); back != input {
				t.Fatalf("DecodeRow(%q) re-encodes to %q", input, back)
			}
		}
		_, _ = DecodeHeader(input)
		_, _ = FirstAttr(input)
	})
}

// FuzzReadText checks the text relation reader against arbitrary files.
func FuzzReadText(f *testing.F) {
	f.Add("0,5\n12,85\n", 1)
	f.Add("1,2|3,4\n", 2)
	f.Add("# comment\n\n5,5\n", 1)
	f.Add("garbage\n", 1)
	f.Fuzz(func(t *testing.T, input string, arity int) {
		if arity < 1 || arity > 4 {
			return
		}
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = string(rune('A' + i))
		}
		rel, err := ReadText(NewSchema("F", attrs...), strings.NewReader(input))
		if err != nil {
			return
		}
		if err := rel.Validate(); err != nil {
			t.Fatalf("ReadText(%q) produced invalid relation: %v", input, err)
		}
	})
}
