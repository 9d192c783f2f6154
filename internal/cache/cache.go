// Package cache implements the semantic result cache behind the ijoind
// join service: completed join results stored as time-range segments,
// keyed by (canonical plan, predicate family, resident-relation versions),
// with byte-budgeted LRU eviction.
//
// Window semantics. A windowed query over the closed time range [lo, hi]
// returns exactly the join rows whose anchor — the first interval
// attribute of the query's first relation — intersects the window. That
// definition makes results segment-decomposable: the answer for a window
// is the union of the answers for any cover of it, with duplicates only
// for rows whose anchor straddles a piece boundary (the "halo"; anchors
// are joined whole, never clipped, so a straddling row appears in every
// adjacent piece and merging dedups on the output-tuple key). A cached
// segment therefore serves any later window by clipping: keep the rows
// whose anchor intersects the query window.
//
// Segments of one key are kept window-disjoint by construction — a miss
// inserts only the uncovered gap windows — so covered/uncovered
// decomposition is a linear scan of the sorted segment list.
package cache

import (
	"container/list"
	"slices"
	"sync"

	"intervaljoin/internal/core"
	"intervaljoin/internal/interval"
)

// Key identifies the result space a segment belongs to. Two queries share
// a key exactly when their canonical plans coincide over identical
// resident-relation versions; any re-registration of an input bumps the
// version string and orphans prior segments (they age out via LRU).
// Construct Keys with every field set — the cachekey lint analyzer
// enforces that Versions and Family are never omitted, since a key that
// drops either would serve stale or cross-family rows.
type Key struct {
	// Plan is core.CanonicalPlan of the query: normalized conjuncts over
	// the ordered relation list.
	Plan string
	// Family is the query's predicate family ("colocation", "sequence",
	// "hybrid", "general").
	Family string
	// Versions renders the resident inputs as "name@vN" in query relation
	// order.
	Versions string
}

// Window is a closed time range [Lo, Hi].
type Window struct {
	Lo, Hi interval.Point
}

// Span is the window's closed length.
func (w Window) Span() int64 { return int64(w.Hi-w.Lo) + 1 }

// Row is one join result row on its way into a segment: the output tuple
// plus its anchor interval (the first attribute of the first relation's
// tuple), kept so a later query can clip the segment to its own window.
type Row struct {
	IDs    core.OutputTuple
	Anchor interval.Interval
}

// Segment is one cached result range: every row whose anchor intersects
// Win, stored flat in canonical order. Row i's ids are
// ids[i*arity:(i+1)*arity] and its anchor is anchors[i], so clipping and
// merging walk contiguous memory instead of one allocation per row.
// Segments are immutable after insertion, so lookups may share them
// outside the cache lock.
type Segment struct {
	Key Key
	Win Window

	arity   int
	ids     []int64
	anchors []interval.Interval

	bytes int64
	elem  *list.Element
}

// newSegment flattens rows, sorted canonically, into a segment for the
// window. Every row has the same arity: one id per query relation.
func newSegment(k Key, w Window, rows []Row) *Segment {
	// Engine results arrive sorted already; re-sorting here is a no-op
	// guard on the cold path.
	if !slices.IsSortedFunc(rows, compareRowIDs) {
		slices.SortFunc(rows, compareRowIDs)
	}
	seg := &Segment{Key: k, Win: w, anchors: make([]interval.Interval, len(rows)), bytes: segmentOverhead}
	if len(rows) > 0 {
		seg.arity = len(rows[0].IDs)
	}
	seg.ids = make([]int64, 0, seg.arity*len(rows))
	for i, r := range rows {
		seg.ids = append(seg.ids, r.IDs...)
		seg.anchors[i] = r.Anchor
		seg.bytes += rowBytes(r)
	}
	return seg
}

// Len is the segment's row count.
func (s *Segment) Len() int { return len(s.anchors) }

// Row returns row i's output tuple: a capacity-limited view into the
// segment's id array, which callers must not modify.
func (s *Segment) Row(i int) core.OutputTuple {
	lo := i * s.arity
	return s.ids[lo : lo+s.arity : lo+s.arity]
}

// clip returns the rows whose anchor intersects w, in canonical order.
func (s *Segment) clip(w Window) []core.OutputTuple {
	run := make([]core.OutputTuple, 0, len(s.anchors))
	for i, a := range s.anchors {
		if a.Start <= w.Hi && a.End >= w.Lo {
			run = append(run, s.Row(i))
		}
	}
	return run
}

// rowBytes approximates a row's resident size: anchor (16) + id slice
// header (24) + ids.
func rowBytes(r Row) int64 { return 40 + 8*int64(len(r.IDs)) }

// segmentOverhead approximates a segment's fixed cost in the budget.
const segmentOverhead = 128

// Stats is the cache's cumulative accounting. Hit counters map onto the
// obs counters the service exports (cache_hit_segments, cache_delta_rows,
// ...); the span pair defines the semantic hit ratio.
type Stats struct {
	// Lookups counts queries; FullHits/PartialHits/Misses classify them by
	// whether the cache covered all, some, or none of the window span.
	Lookups, FullHits, PartialHits, Misses int64
	// HitSegments counts segments handed to queries for merging.
	HitSegments int64
	// CachedRows counts rows served from segments (before clipping);
	// DeltaRows counts rows inserted from delta-window joins.
	CachedRows, DeltaRows int64
	// SpanRequested/SpanCovered accumulate closed window lengths.
	SpanRequested, SpanCovered int64
	// Insertions/Evictions/BytesInUse track the byte-budgeted LRU.
	Insertions, Evictions int64
	BytesInUse            int64
	BytesBudget           int64
	// SharedGaps counts gap windows a query took from another query's
	// in-flight delta run instead of running the engine again. Service.Stats
	// fills it; a bare Cache never shares.
	SharedGaps int64
}

// HitRatio is the fraction of requested window span served from cache.
func (s Stats) HitRatio() float64 {
	if s.SpanRequested == 0 {
		return 0
	}
	return float64(s.SpanCovered) / float64(s.SpanRequested)
}

// Cache is the byte-budgeted LRU segment store. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	lru    *list.List         // of *Segment; front = most recently used
	segs   map[Key][]*Segment // per key, sorted by Win.Lo, windows disjoint
	stats  Stats
}

// DefaultBudget is the byte budget used when New is given a non-positive
// one.
const DefaultBudget int64 = 64 << 20

// New makes an empty cache with the given byte budget.
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	return &Cache{budget: budgetBytes, lru: list.New(), segs: make(map[Key][]*Segment)}
}

// Lookup returns the cached segments intersecting the window (oldest window
// first) and the uncovered gap windows, and updates the hit accounting.
// Returned segments are immutable shared views; the caller clips their rows
// to its own window and dedups against the gaps' delta results.
func (c *Cache) Lookup(k Key, w Window) (hits []*Segment, gaps []Window) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Lookups++
	c.stats.SpanRequested += w.Span()
	cur := w.Lo
	for _, s := range c.segs[k] {
		if s.Win.Hi < w.Lo || s.Win.Lo > w.Hi {
			continue
		}
		if s.Win.Lo > cur {
			gaps = append(gaps, Window{Lo: cur, Hi: s.Win.Lo - 1})
		}
		hits = append(hits, s)
		c.lru.MoveToFront(s.elem)
		c.stats.CachedRows += int64(s.Len())
		if s.Win.Hi >= cur {
			cur = s.Win.Hi + 1
		}
		if cur > w.Hi {
			break
		}
	}
	if cur <= w.Hi {
		gaps = append(gaps, Window{Lo: cur, Hi: w.Hi})
	}
	covered := w.Span()
	for _, g := range gaps {
		covered -= g.Span()
	}
	c.stats.SpanCovered += covered
	c.stats.HitSegments += int64(len(hits))
	switch {
	case len(gaps) == 0:
		c.stats.FullHits++
	case len(hits) > 0:
		c.stats.PartialHits++
	default:
		c.stats.Misses++
	}
	return hits, gaps
}

// Insert caches the segment under its key and reports whether it was
// kept. The segment's window must be one of the gaps a Lookup returned; if
// it meanwhile overlaps an existing segment (two queries raced on
// overlapping gaps), the insert is dropped — the disjointness invariant
// wins over the duplicate work.
func (c *Cache) Insert(seg *Segment) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	segs := c.segs[seg.Key]
	at := len(segs)
	for i, s := range segs {
		if s.Win.Hi >= seg.Win.Lo && s.Win.Lo <= seg.Win.Hi {
			return false
		}
		if s.Win.Lo > seg.Win.Hi {
			at = i
			break
		}
	}
	c.segs[seg.Key] = append(segs[:at:at], append([]*Segment{seg}, segs[at:]...)...)
	seg.elem = c.lru.PushFront(seg)
	c.bytes += seg.bytes
	c.stats.Insertions++
	c.stats.DeltaRows += int64(seg.Len())
	c.evictLocked()
	return true
}

// evictLocked drops least-recently-used segments until the budget holds.
// A single segment larger than the whole budget is evicted immediately
// after insertion — correct (the cache just stays cold) and simple.
func (c *Cache) evictLocked() {
	for c.bytes > c.budget && c.lru.Len() > 0 {
		s := c.lru.Back().Value.(*Segment)
		c.removeLocked(s)
		c.stats.Evictions++
	}
}

// removeLocked unlinks the segment from the LRU and the per-key list.
// Callers hold c.mu (the Locked suffix is the contract).
func (c *Cache) removeLocked(s *Segment) {
	c.lru.Remove(s.elem)
	segs := c.segs[s.Key]
	for i, t := range segs {
		if t == s {
			//lint:ignore shardlock called with c.mu held by evictLocked's callers
			c.segs[s.Key] = append(segs[:i:i], segs[i+1:]...)
			break
		}
	}
	if len(c.segs[s.Key]) == 0 {
		//lint:ignore shardlock called with c.mu held by evictLocked's callers
		delete(c.segs, s.Key)
	}
	//lint:ignore shardlock called with c.mu held by evictLocked's callers
	c.bytes -= s.bytes
}

func compareRowIDs(a, b Row) int { return compareTuples(a.IDs, b.IDs) }

// Stats returns a snapshot of the cumulative accounting.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BytesInUse = c.bytes
	s.BytesBudget = c.budget
	return s
}

// Len reports the number of resident segments.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
