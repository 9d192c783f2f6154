package cache

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// multiAttrRelation is adversarialRelation's first attribute I plus a
// second interval attribute A drawn over the same range.
func multiAttrRelation(name string, seed int64) *relation.Relation {
	base := adversarialRelation(name, seed)
	rng := rand.New(rand.NewSource(seed + 1000))
	rel := relation.New(relation.NewSchema(name, "I", "A"))
	for _, t := range base.Tuples {
		s := interval.Point(rng.Intn(400))
		rel.Append(t.Attrs[0], interval.New(s, s+interval.Point(rng.Intn(60))))
	}
	return rel
}

type reachCase struct {
	name string
	q    *query.Query
	rels []*relation.Relation
}

func reachCases(t *testing.T) []reachCase {
	t.Helper()
	r1, r2, r3 := adversarialRelation("R1", 43), adversarialRelation("R2", 47), adversarialRelation("R3", 53)
	two := []*relation.Relation{r1, r2}
	var cases []reachCase
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		cases = append(cases, reachCase{"R1 " + p.String() + " R2", predQuery(t, p), two})
		// The other operand order: relation 0 stays R1, on the right.
		q := query.New()
		q.AddRelation(relation.NewSchema("R1"))
		mustCond(t, q, "R2", "", p, "R1", "")
		cases = append(cases, reachCase{"R2 " + p.String() + " R1", q, two})
	}
	chain := query.New()
	mustCond(t, chain, "R1", "", interval.Overlaps, "R2", "")
	mustCond(t, chain, "R2", "", interval.Overlaps, "R3", "")
	hybrid := query.New()
	mustCond(t, hybrid, "R1", "", interval.Before, "R2", "")
	mustCond(t, hybrid, "R2", "", interval.Overlaps, "R3", "")
	m1, m2, m3 := multiAttrRelation("R1", 59), multiAttrRelation("R2", 61), multiAttrRelation("R3", 67)
	general := query.New()
	mustCond(t, general, "R1", "I", interval.Overlaps, "R2", "I")
	mustCond(t, general, "R1", "A", interval.Overlaps, "R2", "A")
	mustCond(t, general, "R2", "A", interval.ContainedBy, "R3", "I") // bound side on A
	mustCond(t, general, "R3", "A", interval.After, "R1", "A")       // neither side on I
	return append(cases,
		reachCase{"3-way overlaps chain", chain, []*relation.Relation{r1, r2, r3}},
		reachCase{"hybrid before/overlaps", hybrid, []*relation.Relation{r1, r2, r3}},
		reachCase{"general", general, []*relation.Relation{m1, m2, m3}},
	)
}

func mustCond(t *testing.T, q *query.Query, l, la string, p interval.Predicate, r, ra string) {
	t.Helper()
	if err := q.AddCondition(l, la, p, r, ra); err != nil {
		t.Fatal(err)
	}
}

var reachWindows = append([]Window{{150, 150}, {-50, 10}, {390, 1000}, {401, 500}}, windowMix...)

// TestReachSlicesHoldEveryAnswerTuple is the slicing soundness property:
// for every Allen predicate in both operand orders, a 3-way chain, a
// hybrid and a multi-attribute query, every tuple of every row of the
// full-relation windowed reference answer lies inside its relation's
// slice, and relation 0's slice is exactly the window's anchors. The
// adversarial relations' long stragglers need the maxLen slack. The
// service answer over the slices must equal the reference too.
func TestReachSlicesHoldEveryAnswerTuple(t *testing.T) {
	rows := 0
	for _, c := range reachCases(t) {
		res := make([]*resident, len(c.rels))
		for i, r := range c.rels {
			res[i] = newResident(r)
		}
		svc := newTestService(t, c.rels...)
		for _, w := range reachWindows {
			sliced := reach(c.q, res, w)
			want := oracleWindow(t, svc, c.q, c.rels, w)
			rows += len(want)
			in := make([]map[int64]bool, len(sliced))
			for i, s := range sliced {
				in[i] = make(map[int64]bool, s.Len())
				for _, tu := range s.Tuples {
					in[i][tu.ID] = true
				}
			}
			for _, row := range want {
				for i, id := range row {
					if !in[i][id] {
						t.Fatalf("%s window %s: row %v needs %s tuple %d, missing from its slice of %d",
							c.name, w.string(), row, c.rels[i].Schema.Name, id, sliced[i].Len())
					}
				}
			}
			var anchors int
			for _, tu := range c.rels[0].Tuples {
				if a := tu.Attrs[0]; a.Start <= w.Hi && a.End >= w.Lo {
					anchors++
					if !in[0][tu.ID] {
						t.Fatalf("%s window %s: anchor tuple %d missing from slice 0", c.name, w.string(), tu.ID)
					}
				}
			}
			if anchors != sliced[0].Len() {
				t.Fatalf("%s window %s: slice 0 holds %d tuples, %d anchors intersect the window",
					c.name, w.string(), sliced[0].Len(), anchors)
			}
			ans, err := svc.Query(c.q, w)
			if err != nil {
				t.Fatal(err)
			}
			diffRows(t, c.name+" window "+w.string(), ans.Rows, want)
		}
	}
	if rows == 0 {
		t.Fatal("anti-vacuity: no reference answer had a row")
	}
}

// TestReachKeepsOnlyTheWindowNeighbourhood is the anti-vacuity half: on
// the paper's Table 1 data a window 5% of the time range wide keeps under
// 10% of each relation.
func TestReachKeepsOnlyTheWindowNeighbourhood(t *testing.T) {
	rels := []*relation.Relation{
		workload.MustGenerate(workload.Table1Spec("R1", 10_000, 1)),
		workload.MustGenerate(workload.Table1Spec("R2", 10_000, 2)),
	}
	res := []*resident{newResident(rels[0]), newResident(rels[1])}
	for _, p := range []interval.Predicate{interval.Overlaps, interval.ContainedBy, interval.Meets} {
		sliced := reach(predQuery(t, p), res, Window{40_000, 44_999})
		for i, s := range sliced {
			if s.Len() == 0 || s.Len()*10 >= rels[i].Len() {
				t.Errorf("%s: slice of %s keeps %d of %d tuples, want (0, 10%%)",
					p, rels[i].Schema.Name, s.Len(), rels[i].Len())
			}
		}
	}
}

// TestDeltaFeedFollowsWindow: a delta run's map input follows the window,
// not the relation. Both relations grow 10× over a 10× wider time range,
// so the density around the window stays the same, and a delta run over
// the same gap must read within ±20% of the records it read before.
func TestDeltaFeedFollowsWindow(t *testing.T) {
	q := predQuery(t, interval.Overlaps)
	gap := Window{40_000, 44_999}
	feed := func(n int, tmax int64) int64 {
		gen := func(name string, seed int64) *relation.Relation {
			s := workload.Table1Spec(name, n, seed)
			s.TMax = tmax
			return workload.MustGenerate(s)
		}
		svc := newTestService(t, gen("R1", 1), gen("R2", 2))
		ans, err := svc.Query(q, gap)
		if err != nil {
			t.Fatal(err)
		}
		return ans.Engine.MapInputRecords
	}
	small, large := feed(5_000, 100_000), feed(50_000, 1_000_000)
	t.Logf("map input records: %d over 5k-row relations, %d over 50k", small, large)
	if small == 0 || float64(large) < 0.8*float64(small) || float64(large) > 1.2*float64(small) {
		t.Fatalf("delta run read %d map input records over 5k-row relations, %d over 50k; want within ±20%%", small, large)
	}
}

// TestSortByStartMatchesComparisonSort checks the index's radix sort
// against a comparison sort over the full int64 range, duplicates and
// both extremes included, and that slicing a relation of extreme
// intervals (whose lengths overflow int64) matches a linear filter.
func TestSortByStartMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	starts := []interval.Point{math.MinInt64, math.MaxInt64, -1, 0, 1, 0, math.MinInt64 + 1, 1 << 40, -1 << 40}
	for i := 0; i < 500; i++ {
		starts = append(starts, interval.Point(rng.Uint64()), interval.Point(rng.Intn(300)-150))
	}
	es := make([]indexEntry, len(starts))
	for i, s := range starts {
		es[i] = indexEntry{start: s, pos: i}
	}
	want := slices.Clone(es)
	slices.SortFunc(want, func(a, b indexEntry) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.pos, b.pos))
	})
	sortByStart(es)
	if !slices.Equal(es, want) {
		t.Fatal("radix sort disagrees with the comparison sort")
	}

	rel := relation.FromIntervals("R1", []interval.Interval{
		interval.New(math.MinInt64, math.MaxInt64),
		interval.New(math.MinInt64, -5),
		interval.New(math.MaxInt64-3, math.MaxInt64),
		interval.New(-10, 10),
		interval.New(7, 7),
	})
	r := newResident(rel)
	for _, w := range []Window{{math.MinInt64, math.MinInt64}, {-5, -5}, {0, 7}, {8, math.MaxInt64 - 4}, {math.MaxInt64, math.MaxInt64}} {
		var want []int64
		for _, tu := range rel.Tuples {
			if a := tu.Attrs[0]; a.Start <= w.Hi && a.End >= w.Lo {
				want = append(want, tu.ID)
			}
		}
		var got []int64
		for _, tu := range r.slice(bound{math.MinInt64, w.Hi, w.Lo, math.MaxInt64}).Tuples {
			got = append(got, tu.ID)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("window [%d,%d]: slice ids %v, want %v", w.Lo, w.Hi, got, want)
		}
	}
}
