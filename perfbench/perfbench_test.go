package main

import (
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"intervaljoin/internal/cache"
	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

func TestStoreDecoratorPassesRecordsThrough(t *testing.T) {
	rec := newRecorder()
	mem := dfs.NewMem()
	s := rec.store(mem)
	want := []string{"0|1,5", "", "héllo|x", "42|-3,7|9,9"}
	w, err := s.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	direct, err := dfs.ReadAll(mem, "f")
	if err != nil {
		t.Fatal(err)
	}
	through, err := dfs.ReadAll(s, "f")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(direct, want) || !slices.Equal(through, want) {
		t.Fatalf("records changed: stored %q, read back %q, want %q", direct, through, want)
	}
	records, bytes, err := mem.Stat("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.spans()) != 2 {
		t.Fatalf("got %d spans, want a write and a read", len(rec.spans()))
	}
	for _, sp := range rec.spans() {
		if sp.records != records || sp.bytes != bytes {
			t.Errorf("%s span counted %d records %d bytes, Stat says %d and %d", sp.name, sp.records, sp.bytes, records, bytes)
		}
		if sp.end == 0 || sp.busy <= 0 || sp.busy > sp.dur() {
			t.Errorf("%s span: busy %v outside its lifetime %v", sp.name, sp.busy, sp.dur())
		}
	}
}

func TestStoreDecoratorCountsMatchStatAfterEngineRun(t *testing.T) {
	rec := newRecorder()
	mem := dfs.NewMem()
	q, rels := smallColocation(t)
	plain := runJoin(t, mr.NewEngine(mr.Config{Store: dfs.NewMem()}), q, rels, core.Plan(q, false))
	traced := runJoin(t, mr.NewEngine(mr.Config{Store: rec.store(mem)}), q, rels, core.Plan(q, false))
	if !slices.EqualFunc(plain.Tuples, traced.Tuples, slices.Equal) {
		t.Fatal("decorated store changed the join's rows")
	}
	writes := 0
	for _, sp := range rec.spans() {
		if sp.name != "dfs.write" {
			continue
		}
		writes++
		records, bytes, err := mem.Stat(sp.file)
		if err != nil {
			t.Fatal(err)
		}
		if sp.records != records || sp.bytes != bytes {
			t.Errorf("%s: span counted %d records %d bytes, Stat says %d and %d", sp.file, sp.records, sp.bytes, records, bytes)
		}
	}
	if writes == 0 {
		t.Fatal("the run wrote no file through the decorator")
	}
}

type fixedAlgorithm struct {
	res *core.Result
	err error
}

func (fixedAlgorithm) Name() string                              { return "fixed" }
func (a fixedAlgorithm) Run(*core.Context) (*core.Result, error) { return a.res, a.err }

func TestAlgorithmWrapperReturnsResultUnchanged(t *testing.T) {
	rec := newRecorder()
	want := &core.Result{Algorithm: "fixed", Tuples: []core.OutputTuple{{1, 2}}, Metrics: mr.NewMetrics("fixed")}
	a := rec.algorithm(fixedAlgorithm{res: want})
	if a.Name() != "fixed" {
		t.Errorf("Name() = %q", a.Name())
	}
	got, err := a.Run(nil)
	if got != want || err != nil {
		t.Fatalf("Run returned (%p, %v), want (%p, nil)", got, err, want)
	}
	if runs := rec.runSpans(); len(runs) != 1 || runs[0].m != want.Metrics || runs[0].rows != 1 {
		t.Fatalf("recorded runs %+v, want one with the result's metrics", runs)
	}
	boom := errors.New("boom")
	if got, err := rec.algorithm(fixedAlgorithm{err: boom}).Run(nil); got != nil || err != boom {
		t.Fatalf("error run returned (%v, %v), want (nil, boom)", got, err)
	}
	if (*recorder)(nil).algorithm(fixedAlgorithm{res: want}) != (fixedAlgorithm{res: want}) {
		t.Error("an untraced run must get the algorithm itself")
	}
}

// The service's Answer.Engine merges the delta runs' metrics, and
// mr.Metrics.Merge leaves TrueWalls out; the wrapper sees each run's own
// metrics, TrueWalls included, and their counts add up to the Answer's.
func TestWrapperSeesEachDeltaRun(t *testing.T) {
	rec := newRecorder()
	r1 := workload.MustGenerate(workload.Table1Spec("R1", 2000, 1))
	r2 := workload.MustGenerate(workload.Table1Spec("R2", 2000, 2))
	svc, err := cache.NewService(cache.ServiceConfig{
		Engine:    mr.NewEngine(mr.Config{Store: rec.store(dfs.NewMem())}),
		Algorithm: func(q *query.Query) core.Algorithm { return rec.algorithm(core.Plan(q, false)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*relation.Relation{r1, r2} {
		if _, err := svc.Register(r); err != nil {
			t.Fatal(err)
		}
	}
	q, err := query.Parse(serveQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query(q, cache.Window{Lo: 20_000, Hi: 30_000}); err != nil {
		t.Fatal(err)
	}
	before := len(rec.runSpans())
	// Two gaps: the window reaches past the cached segment on both sides.
	ans, err := svc.QueryTraced(q, cache.Window{Lo: 10_000, Hi: 40_000}, rec.engineTracer())
	if err != nil {
		t.Fatal(err)
	}
	runs := rec.runSpans()[before:]
	if len(ans.DeltaWindows) != 2 || len(runs) != 2 {
		t.Fatalf("%d delta windows, %d wrapped runs; want 2 and 2", len(ans.DeltaWindows), len(runs))
	}
	var in int64
	for _, r := range runs {
		in += r.m.MapInputRecords
		if r.m.TrueWalls.Zero() {
			t.Error("a delta run's metrics carry no TrueWalls")
		}
	}
	if in != ans.Engine.MapInputRecords {
		t.Errorf("wrapped runs read %d records, Answer.Engine says %d", in, ans.Engine.MapInputRecords)
	}
}

func TestServeOracleMatchesWindowedReference(t *testing.T) {
	r1 := workload.MustGenerate(workload.Table1Spec("R1", 3000, 7))
	r2 := workload.MustGenerate(workload.Table1Spec("R2", 3000, 8))
	q, err := query.Parse(serveQuery)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceJoin(q, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []cache.Window{{Lo: 0, Hi: 100_000}, {Lo: 5000, Hi: 9000}, {Lo: 50_000, Hi: 50_000}, {Lo: 200_000, Hi: 300_000}} {
		opts := core.Options{Window: &[2]interval.Point{w.Lo, w.Hi}}
		ctx, err := core.NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem()}), q, []*relation.Relation{r1, r2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Reference{}.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := ref.window(w); got != digestRows(want.Tuples) {
			t.Errorf("window %v: oracle digest %+v, windowed reference %+v", w, got, digestRows(want.Tuples))
		}
	}
}

func TestDigestIsOrderFreeAndSensitive(t *testing.T) {
	a := []core.OutputTuple{{1, 2}, {1, 3}, {2, 0}}
	b := []core.OutputTuple{{2, 0}, {1, 2}, {1, 3}}
	if digestRows(a) != digestRows(b) {
		t.Error("the same rows in another order digest differently")
	}
	for _, c := range [][]core.OutputTuple{
		{{1, 2}, {1, 3}},
		{{1, 2}, {1, 3}, {2, 1}},
		{{1, 2}, {1, 3}, {2, 0}, {2, 0}},
	} {
		if digestRows(c) == digestRows(a) {
			t.Errorf("%v digests like %v", c, a)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "op", parent: -1, timed: true, start: 0, end: 100 * ms},
		{name: "cache.query", parent: 0, timed: true, start: 10 * ms, end: 90 * ms},
		{name: "core.run", parent: 1, timed: true, start: 20 * ms, end: 60 * ms},
		{name: "dfs.read", parent: 2, timed: true, start: 25 * ms, end: 55 * ms, busy: 5 * ms},
		{name: "dfs.read", parent: 2, timed: true, start: 30 * ms, end: 50 * ms, busy: 3 * ms},
		{name: "setup", parent: -1, start: 200 * ms, end: 260 * ms},
		{name: "relation.load", parent: 5, start: 200 * ms, end: 250 * ms},
	}
	op, setup := selfTimes(spans)
	want := map[string]time.Duration{"bench": 20 * ms, "cache": 40 * ms, "core": 32 * ms, "dfs": 8 * ms}
	for l, d := range want {
		if op[l] != d {
			t.Errorf("op self time of %s = %v, want %v", l, op[l], d)
		}
	}
	if setup["relation"] != 50*ms || setup["bench"] != 10*ms {
		t.Errorf("set-up self times %v", setup)
	}
}

// badRunner answers every op wrongly; the run must report it and fail.
type badRunner struct{ ops int }

func (*badRunner) describe() string            { return "bad" }
func (*badRunner) setup(*recorder) error       { return nil }
func (*badRunner) warm(*recorder) (int, error) { return 0, nil }
func (d *badRunner) op(int, *recorder) (opStat, error) {
	d.ops++
	return opStat{dur: time.Millisecond}, nil
}
func (d *badRunner) verify(*recorder) (int, error) { n := d.ops; d.ops = 0; return n, nil }

func TestMismatchFailsTheRun(t *testing.T) {
	w := benchWorkload{name: "bad", clients: 1, generate: func(string, int64) (runner, error) { return &badRunner{}, nil }}
	for _, traced := range []bool{false, true} {
		res, err := execute(w, 1, 10*time.Millisecond, traced, t.TempDir(), t.TempDir(), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("traced=%v: result %+v, want every op failed", traced, res)
		}
	}
}

func smallColocation(t *testing.T) (*query.Query, []*relation.Relation) {
	t.Helper()
	q, err := query.Parse("R1 overlaps R2 and R2 overlaps R3")
	if err != nil {
		t.Fatal(err)
	}
	return q, []*relation.Relation{
		workload.MustGenerate(workload.Table3Spec("R1", 500, 120, 1)),
		workload.MustGenerate(workload.Table3Spec("R2", 500, 120, 2)),
		workload.MustGenerate(workload.Table3Spec("R3", 500, 120, 3)),
	}
}

func runJoin(t *testing.T, eng *mr.Engine, q *query.Query, rels []*relation.Relation, a core.Algorithm) *core.Result {
	t.Helper()
	ctx, err := core.NewContext(eng, q, rels, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
