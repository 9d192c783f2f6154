package cache

import (
	"cmp"
	"math"
	"slices"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// resident is one registered version of a relation: the relation itself
// plus an index of its tuples sorted by first-attribute start. maxLen, the
// longest first attribute, bounds how far before a window a tuple may
// start and still reach into it, so a window's tuples are one binary
// search and a short scan away.
type resident struct {
	rel     *relation.Relation
	version int
	byStart []indexEntry
	maxLen  uint64 // unsigned: a length may exceed math.MaxInt64
}

// indexEntry is one tuple's first attribute and its position in
// rel.Tuples. Sorting and scanning these packed entries never chases a
// tuple's Attrs pointer.
type indexEntry struct {
	start, end interval.Point
	pos        int
}

func newResident(rel *relation.Relation) *resident {
	r := &resident{rel: rel, byStart: make([]indexEntry, len(rel.Tuples))}
	for i, t := range rel.Tuples {
		a := t.Attrs[0]
		r.byStart[i] = indexEntry{start: a.Start, end: a.End, pos: i}
		r.maxLen = max(r.maxLen, uint64(a.End)-uint64(a.Start))
	}
	sortByStart(r.byStart)
	return r
}

// sortByStart orders entries, which arrive in position order, by (start,
// position): a stable LSD radix sort over the start's bytes, with the sign
// bit flipped so negative starts order first. A pass over a byte every
// start shares moves nothing and is skipped.
func sortByStart(es []indexEntry) {
	if len(es) < 2 {
		return
	}
	digit := func(e indexEntry, shift uint) byte { return byte((uint64(e.start) ^ 1<<63) >> shift) }
	src, dst := es, make([]indexEntry, len(es))
	for shift := uint(0); shift < 64; shift += 8 {
		var at [256]int
		for _, e := range src {
			at[digit(e, shift)]++
		}
		if at[digit(src[0], shift)] == len(src) {
			continue
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		for _, e := range src {
			d := digit(e, shift)
			dst[at[d]] = e
			at[d]++
		}
		src, dst = dst, src
	}
	copy(es, src)
}

// bound constrains a tuple's first attribute: Start in [startLo, startHi]
// and End in [endLo, endHi]. The zero-width bound admits nothing.
type bound struct {
	startLo, startHi, endLo, endHi interval.Point
}

var (
	anywhere = bound{math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64}
	nowhere  = bound{math.MaxInt64, math.MinInt64, math.MaxInt64, math.MinInt64}
)

func (b bound) and(o bound) bound {
	return bound{max(b.startLo, o.startLo), min(b.startHi, o.startHi), max(b.endLo, o.endLo), min(b.endHi, o.endHi)}
}

// slice returns the relation restricted to the tuples whose first
// attribute satisfies b, in start order; the relation itself when b
// admits everything.
func (r *resident) slice(b bound) *relation.Relation {
	if b == anywhere {
		return r.rel
	}
	// End >= endLo implies Start >= endLo - maxLen, saturated at the
	// smallest point.
	from := interval.Point(math.MinInt64)
	if r.maxLen < uint64(b.endLo)-uint64(from) {
		from = interval.Point(uint64(b.endLo) - r.maxLen)
	}
	from = max(from, b.startLo)
	i, _ := slices.BinarySearchFunc(r.byStart, from, func(e indexEntry, p interval.Point) int { return cmp.Compare(e.start, p) })
	out := &relation.Relation{Schema: r.rel.Schema}
	for _, e := range r.byStart[i:] {
		if e.start > b.startHi {
			break
		}
		if e.end >= b.endLo && e.end <= b.endHi {
			out.Tuples = append(out.Tuples, r.rel.Tuples[e.pos])
		}
	}
	return out
}

// hull summarizes one attribute over a bound slice: the extreme starts and
// ends. ok is false for an empty slice.
type hull struct {
	minStart, maxStart, minEnd, maxEnd interval.Point
	ok                                 bool
}

func hullOf(tuples []relation.Tuple, attr int) hull {
	h := hull{minStart: math.MaxInt64, maxStart: math.MinInt64, minEnd: math.MaxInt64, maxEnd: math.MinInt64}
	for _, t := range tuples {
		a := t.Attrs[attr]
		h.minStart, h.maxStart = min(h.minStart, a.Start), max(h.maxStart, a.Start)
		h.minEnd, h.maxEnd = min(h.minEnd, a.End), max(h.maxEnd, a.End)
		h.ok = true
	}
	return h
}

// reachOf bounds v over every u in the hull for which "u p v" can hold.
// Colocation predicates make v share a point with some u, so v intersects
// the hull; before and after bound v on one side only.
func reachOf(p interval.Predicate, h hull) bound {
	if !h.ok {
		return nowhere
	}
	b := anywhere
	switch {
	case p.IsColocation(): // v shares a point with some u
		b.startHi, b.endLo = h.maxEnd, h.minStart
	case p == interval.Before: // u.End < v.Start
		if h.minEnd == math.MaxInt64 {
			return nowhere
		}
		b.startLo = h.minEnd + 1
	default: // after: v.End < u.Start
		if h.maxStart == math.MinInt64 {
			return nowhere
		}
		b.startHi, b.endHi = h.maxStart-1, h.maxStart-1
	}
	return b
}

// reach binds the query's relations to the tuples a delta run over the
// window needs, instead of whole relations. Relation 0 gets exactly the
// tuples whose anchor intersects w. Every other relation, walked outward
// from relation 0 along the join graph, gets the tuples within predicate
// reach of the slices bound before it: each condition between it and a
// bound relation on its first attribute keeps only the tuples that can
// satisfy the condition against some bound tuple. That is the paper's
// less-than-order argument (Section 5.1) used as a filter: a tuple the
// predicate orders wholly past every bound partner joins no answer row.
// Conditions on other attributes bound nothing, and a relation the walk
// cannot reach keeps every tuple. Each slice holds every tuple of its
// relation that appears in a windowed answer row, so the join over the
// slices is exactly the windowed answer.
func reach(q *query.Query, res []*resident, w Window) []*relation.Relation {
	out := make([]*relation.Relation, len(res))
	out[0] = res[0].slice(bound{math.MinInt64, w.Hi, w.Lo, math.MaxInt64})
	for {
		j := nextReachable(q, out)
		if j < 0 {
			break
		}
		b := anywhere
		for _, c := range q.Conds {
			p, self, other := c.Pred, c.Right, c.Left
			if c.Left.Rel == j {
				p, self, other = p.Inverse(), c.Left, c.Right
			}
			if self.Rel != j || self.Attr != 0 || out[other.Rel] == nil {
				continue
			}
			b = b.and(reachOf(p, hullOf(out[other.Rel].Tuples, other.Attr)))
		}
		out[j] = res[j].slice(b)
	}
	for j, r := range out {
		if r == nil {
			out[j] = res[j].rel
		}
	}
	return out
}

// nextReachable returns the first unbound relation sharing a condition
// with a bound one, or -1.
func nextReachable(q *query.Query, out []*relation.Relation) int {
	for _, c := range q.Conds {
		l, r := out[c.Left.Rel] != nil, out[c.Right.Rel] != nil
		switch {
		case l && !r:
			return c.Right.Rel
		case r && !l:
			return c.Left.Rel
		}
	}
	return -1
}
