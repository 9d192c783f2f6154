package relation

import (
	"fmt"

	"intervaljoin/internal/interval"
)

// Arena is a struct-of-arrays tuple store for the reduce-side join kernel:
// ids, per-tuple attribute offsets and a single flat interval column live in
// three parallel slices, so decoding a candidate list touches no per-tuple
// heap objects and re-materialising a tuple for emission is a pair of
// subslice headers. A tuple is identified by the int32 ref Append returns;
// refs are dense (0..Len()-1) and stay valid until Reset.
//
// The offset column handles mixed arity (Gen-Matrix relations carry several
// interval attributes): tuple ref's attributes are flat[base[ref]:base[ref+1]].
// An Arena belongs to one goroutine; pooled reuse goes through Reset, which
// keeps the backing arrays.
type Arena struct {
	ids []int64
	// base is a prefix table with len(ids)+1 entries once any tuple is
	// stored: base[r] is the flat offset of tuple r's first attribute.
	base []int32
	flat []interval.Interval
}

// Len is the number of tuples stored.
func (a *Arena) Len() int { return len(a.ids) }

// Reset empties the arena, retaining capacity for reuse.
func (a *Arena) Reset() {
	a.ids = a.ids[:0]
	a.base = a.base[:0]
	a.flat = a.flat[:0]
}

func (a *Arena) initBase() {
	if len(a.base) == 0 {
		a.base = append(a.base, 0)
	}
}

// Append copies t into the arena and returns its ref.
func (a *Arena) Append(t Tuple) int32 {
	a.initBase()
	a.ids = append(a.ids, t.ID)
	a.flat = append(a.flat, t.Attrs...)
	a.base = append(a.base, int32(len(a.flat)))
	return int32(len(a.ids) - 1)
}

// ID returns the stored tuple id.
func (a *Arena) ID(ref int32) int64 { return a.ids[ref] }

// Arity returns the number of attributes of tuple ref.
func (a *Arena) Arity(ref int32) int { return int(a.base[ref+1] - a.base[ref]) }

// Attr returns one attribute interval of tuple ref.
func (a *Arena) Attr(ref int32, attr int) interval.Interval {
	lo, hi := a.base[ref], a.base[ref+1]
	if attr < 0 || int32(attr) >= hi-lo {
		panic(fmt.Sprintf("relation: arena attr %d on arity-%d tuple", attr, hi-lo))
	}
	return a.flat[lo+int32(attr)]
}

// Start returns Attr(ref, attr).Start — the endpoint column read the sweep
// kernels build their sort keys from.
func (a *Arena) Start(ref int32, attr int) int64 { return a.Attr(ref, attr).Start }

// End returns Attr(ref, attr).End.
func (a *Arena) End(ref int32, attr int) int64 { return a.Attr(ref, attr).End }

// Tuple materialises tuple ref. The returned tuple's Attrs alias the arena:
// valid until the next Reset, and not to be retained across one.
func (a *Arena) Tuple(ref int32) Tuple {
	return Tuple{ID: a.ids[ref], Attrs: a.flat[a.base[ref]:a.base[ref+1]:a.base[ref+1]]}
}
