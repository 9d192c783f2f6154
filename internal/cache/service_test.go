package cache

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// adversarialRelation builds tuples that stress the delta-boundary
// handling: interval endpoints pinned exactly on the window boundaries the
// test queries use (multiples of 100 over [0,400]), degenerate points on
// boundaries, long stradlers spanning several windows, plus seeded random
// fill.
func adversarialRelation(name string, seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	var ivs []interval.Interval
	for b := interval.Point(0); b <= 400; b += 100 {
		ivs = append(ivs,
			interval.New(b, b),             // point on the boundary
			interval.New(b, b+100),         // starts on a boundary, ends on the next
			interval.New(max(0, b-1), b+1), // straddles by one
		)
	}
	ivs = append(ivs,
		interval.New(0, 400),  // spans everything
		interval.New(99, 301), // straddles three boundaries
		interval.New(100, 299),
		interval.New(101, 298),
	)
	for i := 0; i < 40; i++ {
		s := interval.Point(rng.Intn(400))
		e := s + interval.Point(rng.Intn(150))
		ivs = append(ivs, interval.New(s, e))
	}
	return relation.FromIntervals(name, ivs)
}

func newTestService(t *testing.T, rels ...*relation.Relation) *Service {
	t.Helper()
	eng := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 4})
	svc, err := NewService(ServiceConfig{Engine: eng, Opts: core.Options{Partitions: 4, PartitionsPerDim: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rels {
		if _, err := svc.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

func predQuery(t *testing.T, pred interval.Predicate) *query.Query {
	t.Helper()
	q := query.New()
	if err := q.AddCondition("R1", "", pred, "R2", ""); err != nil {
		t.Fatal(err)
	}
	return q
}

// oracleWindow computes the expected windowed answer with the in-memory
// reference join: the window filter restricts relation 0 exactly as the
// engine's feed-time filter does.
func oracleWindow(t *testing.T, svc *Service, q *query.Query, rels []*relation.Relation, w Window) []core.OutputTuple {
	t.Helper()
	opts := core.Options{Window: &[2]interval.Point{w.Lo, w.Hi}}
	ctx, err := core.NewContext(svc.engine, q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Reference{}.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res.Tuples
}

func diffRows(t *testing.T, label string, got, want []core.OutputTuple) {
	t.Helper()
	if err := core.DiffRows(got, want); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// windowMix is a query sequence engineered to produce cold misses, partial
// hits with boundary-straddling gaps, and exact full hits.
var windowMix = []Window{
	{0, 199},   // cold
	{100, 299}, // partial: [200,299] is the gap, stradlers cross 200
	{50, 249},  // full hit (covered by [0,199]+[200,299])
	{0, 399},   // partial: gap [300,399]
	{150, 250}, // full hit
	{100, 299}, // exact repeat: full hit
	{380, 400}, // partial overhang: gap [400,400]
	{0, 400},   // full hit of everything
}

// TestCachedMergePlusDeltaEqualsColdRun is the equivalence property test:
// for every one of the 13 Allen predicates, a service answering the window
// mix from its evolving cache must produce, for each query, exactly the
// cold windowed result — sorted-set identical — despite boundary-straddling
// anchors appearing in multiple segments. The anti-vacuity guard asserts
// the mix actually exercised partial hits, full hits and cached segments,
// so the equivalence is not vacuously about empty caches.
func TestCachedMergePlusDeltaEqualsColdRun(t *testing.T) {
	for p := interval.Predicate(0); p < interval.NumPredicates; p++ {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			r1 := adversarialRelation("R1", 7)
			r2 := adversarialRelation("R2", 11)
			svc := newTestService(t, r1, r2)
			q := predQuery(t, p)
			rels := []*relation.Relation{r1, r2}

			sawPartial := false
			for i, w := range windowMix {
				ans, err := svc.Query(q, w)
				if err != nil {
					t.Fatal(err)
				}
				if ans.HitSegments > 0 && len(ans.DeltaWindows) > 0 {
					sawPartial = true
				}
				want := oracleWindow(t, svc, q, rels, w)
				diffRows(t, p.String()+" window "+w.string()+" (query "+itoa(i)+")", ans.Rows, want)
			}
			st := svc.Stats()
			if st.FullHits == 0 || st.PartialHits == 0 || st.HitSegments == 0 {
				t.Fatalf("anti-vacuity: mix never exercised the cache: %+v", st)
			}
			if !sawPartial {
				t.Fatal("anti-vacuity: no query merged cached segments with delta joins")
			}
			if st.DeltaRows == 0 && st.CachedRows == 0 {
				t.Fatalf("anti-vacuity: no rows flowed at all: %+v", st)
			}
		})
	}
}

func (w Window) string() string { return "[" + itoa(int(w.Lo)) + "," + itoa(int(w.Hi)) + "]" }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		n--
		b[n] = '-'
	}
	return string(b[n:])
}

// TestWarmAnswerMatchesColdEngineRun pins the other leg of the equivalence:
// the service's warm answer equals a from-scratch engine run of the same
// windowed query on a fresh service (cold cache), exercising the feed-time
// window filter rather than the in-memory oracle.
func TestWarmAnswerMatchesColdEngineRun(t *testing.T) {
	r1 := adversarialRelation("R1", 3)
	r2 := adversarialRelation("R2", 5)
	q := predQuery(t, interval.Overlaps)

	warm := newTestService(t, r1, r2)
	for _, w := range windowMix {
		if _, err := warm.Query(q, w); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []Window{{60, 260}, {0, 400}, {199, 201}} {
		warmAns, err := warm.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		cold := newTestService(t, r1, r2)
		coldAns, err := cold.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		if coldAns.HitSegments != 0 {
			t.Fatalf("cold service reported cache hits: %+v", coldAns)
		}
		diffRows(t, "warm vs cold "+w.string(), warmAns.Rows, coldAns.Rows)
	}
}

// TestVersionBumpInvalidates ensures a re-registered relation changes the
// cache key: stale segments stop matching and answers reflect new data.
func TestVersionBumpInvalidates(t *testing.T) {
	r1 := adversarialRelation("R1", 13)
	r2 := adversarialRelation("R2", 17)
	svc := newTestService(t, r1, r2)
	q := predQuery(t, interval.Before)
	w := Window{0, 400}
	first, err := svc.Query(q, w)
	if err != nil {
		t.Fatal(err)
	}
	// Replace R2 with a single tuple; every cached row is now stale.
	r2b := relation.FromIntervals("R2", []interval.Interval{interval.New(350, 360)})
	if _, err := svc.Register(r2b); err != nil {
		t.Fatal(err)
	}
	second, err := svc.Query(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if second.HitSegments != 0 {
		t.Fatalf("query after re-registration hit stale segments: %+v", second)
	}
	if first.Key == second.Key {
		t.Fatalf("cache key did not change across versions: %+v", first.Key)
	}
	want := oracleWindow(t, svc, q, []*relation.Relation{r1, r2b}, w)
	diffRows(t, "post-bump", second.Rows, want)
}

// TestThreeWayHybridWindow covers a multi-relation hybrid query through the
// cached path.
func TestThreeWayHybridWindow(t *testing.T) {
	r1 := adversarialRelation("R1", 19)
	r2 := adversarialRelation("R2", 23)
	r3 := adversarialRelation("R3", 29)
	svc := newTestService(t, r1, r2, r3)
	q := query.New()
	if err := q.AddCondition("R1", "", interval.Overlaps, "R2", ""); err != nil {
		t.Fatal(err)
	}
	if err := q.AddCondition("R2", "", interval.Before, "R3", ""); err != nil {
		t.Fatal(err)
	}
	rels := []*relation.Relation{r1, r2, r3}
	for _, w := range []Window{{0, 199}, {100, 299}, {0, 299}, {0, 299}} {
		ans, err := svc.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		diffRows(t, "hybrid "+w.string(), ans.Rows, oracleWindow(t, svc, q, rels, w))
	}
	if st := svc.Stats(); st.FullHits == 0 || st.HitSegments == 0 {
		t.Fatalf("hybrid mix never hit the cache: %+v", st)
	}
}

// TestUnregisteredRelationRejected pins the service's binding and
// registration errors.
func TestUnregisteredRelationRejected(t *testing.T) {
	svc := newTestService(t, adversarialRelation("R1", 31))
	if _, err := svc.Query(predQuery(t, interval.Meets), Window{0, 10}); err == nil {
		t.Fatal("query over unregistered relation succeeded")
	}
	if _, err := svc.Query(predQuery(t, interval.Meets), Window{10, 0}); err == nil {
		t.Fatal("empty window accepted")
	}
	noAttrs := &relation.Relation{Schema: relation.Schema{Name: "R9"}, Tuples: []relation.Tuple{{ID: 0}}}
	if _, err := svc.Register(noAttrs); err == nil {
		t.Fatal("relation without attributes registered")
	}
}

// TestDeltaRunsLeaveNoScratch checks delta and cold runs remove their
// scratch files, staged slices included: after 50 queries over distinct
// gaps and one cold run, the store is empty — registered relations live
// in memory, not on the store.
func TestDeltaRunsLeaveNoScratch(t *testing.T) {
	svc := newTestService(t, adversarialRelation("R1", 37), adversarialRelation("R2", 41))
	q := predQuery(t, interval.Overlaps)
	for i := 0; i < 50; i++ {
		w := Window{interval.Point(i * 10), interval.Point(i*10 + 4)}
		if _, err := svc.Query(q, w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.RunCold(q, Window{0, 400}); err != nil {
		t.Fatal(err)
	}
	files, err := svc.engine.Store().List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("store holds %q, want it empty", files)
	}
}

// gatedAlgorithm counts engine runs and holds each until release closes.
type gatedAlgorithm struct {
	core.Algorithm
	runs    *atomic.Int64
	started chan<- struct{}
	release <-chan struct{}
}

func (g gatedAlgorithm) Run(ctx *core.Context) (*core.Result, error) {
	g.runs.Add(1)
	g.started <- struct{}{}
	<-g.release
	return g.Algorithm.Run(ctx)
}

// TestConcurrentQueriesShareOneGapRun: a second query asking for the gap
// a first query is still joining waits for that run and shares its rows,
// so two concurrent cold queries on one gap make one engine run, and both
// answers equal the windowed reference.
func TestConcurrentQueriesShareOneGapRun(t *testing.T) {
	r1, r2 := adversarialRelation("R1", 73), adversarialRelation("R2", 79)
	var runs atomic.Int64
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	svc, err := NewService(ServiceConfig{
		Engine: mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2}),
		Opts:   core.Options{Partitions: 4},
		Algorithm: func(q *query.Query) core.Algorithm {
			return gatedAlgorithm{Algorithm: core.Plan(q, false), runs: &runs, started: started, release: release}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*relation.Relation{r1, r2} {
		if _, err := svc.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	q := predQuery(t, interval.Overlaps)
	w := Window{100, 299}
	var answers [2]*Answer
	var errs [2]error
	var wg sync.WaitGroup
	query := func(i int) {
		defer wg.Done()
		answers[i], errs[i] = svc.Query(q, w)
	}
	wg.Add(2)
	go query(0)
	<-started // the first query's run is in the engine
	go query(1)
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().SharedGaps == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("two concurrent queries on one gap made %d engine runs, want 1", n)
	}
	if st := svc.Stats(); st.SharedGaps != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v: want one shared gap and two misses", st)
	}
	want := oracleWindow(t, svc, q, []*relation.Relation{r1, r2}, w)
	for i, ans := range answers {
		diffRows(t, "query "+itoa(i), ans.Rows, want)
	}
	if answers[0].Engine == nil || answers[1].Engine != nil {
		t.Fatal("only the query that ran the gap reports engine metrics")
	}
}

// TestScatteredRowsFlattenUnchanged re-points every cached segment's rows
// at scattered allocations — each row's ids a separate allocation, made
// in shuffled order and handed over out of canonical order, the way
// engine output arrives — and rebuilds the segment from them. Answers
// must stay the same, the segment must not alias its input rows, and the
// byte accounting must still charge rowBytes per row.
func TestScatteredRowsFlattenUnchanged(t *testing.T) {
	svc := newTestService(t, adversarialRelation("R1", 83), adversarialRelation("R2", 89))
	q := predQuery(t, interval.Overlaps)
	want := make([][]core.OutputTuple, len(windowMix))
	for i, w := range windowMix {
		ans, err := svc.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ans.Rows
	}
	c := svc.cache
	c.mu.Lock()
	var segs []*Segment
	for e := c.lru.Front(); e != nil; e = e.Next() {
		segs = append(segs, e.Value.(*Segment))
	}
	c.mu.Unlock()
	before := c.Stats().BytesInUse
	rng := rand.New(rand.NewSource(97))
	var rowSum int64
	for _, seg := range segs {
		rows := make([]Row, seg.Len())
		for _, i := range rng.Perm(seg.Len()) {
			rows[i] = Row{IDs: slices.Clone(seg.Row(i)), Anchor: seg.anchors[i]}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		flat := newSegment(seg.Key, seg.Win, rows)
		rowSum += segmentOverhead
		for _, r := range rows {
			rowSum += rowBytes(r)
			r.IDs[0] = -1 // the segment holds its own copy
		}
		c.mu.Lock()
		c.removeLocked(seg)
		c.mu.Unlock()
		if !c.Insert(flat) {
			t.Fatal("rebuilt segment dropped")
		}
	}
	if got := c.Stats().BytesInUse; got != before || got != rowSum {
		t.Fatalf("bytes in use %d after rebuild, %d before, rowBytes sum %d", got, before, rowSum)
	}
	for i, w := range windowMix {
		ans, err := svc.Query(q, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.DeltaWindows) != 0 {
			t.Fatalf("window %s missed the rebuilt segments", w.string())
		}
		diffRows(t, "rebuilt "+w.string(), ans.Rows, want[i])
	}
}
