package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"intervaljoin/internal/cache"
	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

const (
	serveQuery    = "R1 overlaps R2"
	serveRows     = 20_000
	serveVariants = 4  // pre-generated versions of R2 the writes cycle through
	writeEvery    = 50 // one op in writeEvery re-registers R2
	warmQueries   = 200
	mixLen        = 50_000 // windows generated; the loop wraps around
)

// serveRunner is a closed-loop client of cache.Service, the transport-free
// core of ijoind. A query op parses the query and asks for one window of
// the zipfian mix, as the ijoind handler does; a write op registers the
// next pre-generated version of R2, which bumps its version and so
// invalidates every cached segment built on the old one.
type serveRunner struct {
	r1  relFile
	r2  []relFile
	mix []workload.QueryWindow

	// State of the last set-up.
	rel1 *relation.Relation
	rel2 []*relation.Relation
	svc  *cache.Service

	mu      sync.Mutex
	writes  int
	variant map[int]int // R2 version -> index of the variant registered
	answers []answer
}

type answer struct {
	win cache.Window
	r2v int // R2 version the answer was computed on
	got digest
}

func newServe(dir string, seed int64) (*serveRunner, error) {
	d := &serveRunner{}
	var err error
	if d.r1, err = writeRelation(dir, workload.Table1Spec("R1", serveRows, seed)); err != nil {
		return nil, err
	}
	for v := 0; v < serveVariants; v++ {
		f, err := writeRelation(dir, workload.Table1Spec("R2", serveRows, seed+1+int64(v)))
		if err != nil {
			return nil, err
		}
		d.r2 = append(d.r2, f)
	}
	// Table1Spec draws every interval inside [0, 100K].
	d.mix, err = workload.ZipfQueryMix(workload.QueryMixSpec{
		N: mixLen, TMin: 0, TMax: 100_000, Hotspots: 8, Skew: 1.5, Seed: seed,
	})
	return d, err
}

func (d *serveRunner) describe() string {
	return fmt.Sprintf("%q, R1 %d rows, %d versions of R2 x %d rows, zipfian windows (8 hotspots, skew 1.5), 1 write in %d ops",
		serveQuery, d.r1.rows, len(d.r2), d.r2[0].rows, writeEvery)
}

func (d *serveRunner) setup(rec *recorder) error {
	rels, err := loadAll(rec, append([]relFile{d.r1}, d.r2...))
	if err != nil {
		return err
	}
	cfg := cache.ServiceConfig{Engine: mr.NewEngine(mr.Config{Store: rec.store(dfs.NewMem())})}
	if rec != nil {
		cfg.Algorithm = func(q *query.Query) core.Algorithm { return rec.algorithm(core.Plan(q, false)) }
	}
	svc, err := cache.NewService(cfg)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.rel1, d.rel2, d.svc = rels[0], rels[1:], svc
	d.writes, d.variant, d.answers = 0, map[int]int{}, nil
	d.mu.Unlock()
	if _, _, err := d.register(rec, d.rel1); err != nil {
		return err
	}
	v, _, err := d.register(rec, d.rel2[0])
	d.mu.Lock()
	d.variant[v] = 0
	d.mu.Unlock()
	return err
}

func (d *serveRunner) register(rec *recorder, rel *relation.Relation) (int, time.Duration, error) {
	sp := rec.begin("cache.register")
	start := time.Now()
	v, err := d.svc.Register(rel)
	dur := time.Since(start)
	rec.end(sp)
	rec.addRegister(dur)
	return v, dur, err
}

func (d *serveRunner) warm(rec *recorder) (int, error) {
	for i := 0; i < warmQueries; i++ {
		sp := rec.beginOp("warm")
		_, err := d.query(rec, d.mix[i])
		rec.end(sp)
		if err != nil {
			return i, err
		}
	}
	rec.cacheStats(d.svc.Stats(), true)
	return warmQueries, nil
}

func (d *serveRunner) op(i int, rec *recorder) (opStat, error) {
	if i%writeEvery != writeEvery-1 {
		return d.query(rec, d.mix[(warmQueries+i)%len(d.mix)])
	}
	d.mu.Lock()
	d.writes++
	v := d.writes % len(d.rel2)
	d.mu.Unlock()
	ver, dur, err := d.register(rec, d.rel2[v])
	if err == nil {
		d.mu.Lock()
		d.variant[ver] = v
		d.mu.Unlock()
	}
	return opStat{dur: dur, write: true}, err
}

func (d *serveRunner) query(rec *recorder, w workload.QueryWindow) (opStat, error) {
	start := time.Now()
	sp := rec.begin("query.parse")
	q, err := query.Parse(serveQuery)
	rec.addParse(time.Since(start))
	rec.end(sp)
	if err != nil {
		return opStat{dur: time.Since(start)}, err
	}
	win := cache.Window{Lo: w.Lo, Hi: w.Hi}
	sp = rec.begin("cache.query")
	var ans *cache.Answer
	if rec == nil {
		ans, err = d.svc.Query(q, win)
	} else {
		// QueryTraced attaches a fresh engine tracer to this query's delta
		// joins so their mr.Metrics carry TrueWalls; rows are identical.
		ans, err = d.svc.QueryTraced(q, win, rec.engineTracer())
	}
	dur := time.Since(start)
	rec.end(sp)
	if err != nil {
		return opStat{dur: dur}, err
	}
	r2v, err := r2Version(ans.Key.Versions)
	if err != nil {
		return opStat{dur: dur}, err
	}
	got := digestRows(ans.Rows)
	d.mu.Lock()
	d.answers = append(d.answers, answer{win: win, r2v: r2v, got: got})
	d.mu.Unlock()
	rec.addQuery(querySample{
		span: sp, lat: dur, fullHit: len(ans.DeltaWindows) == 0, hitSegments: ans.HitSegments,
		cachedRows: ans.CachedRows, deltaRows: ans.DeltaRows, rows: len(ans.Rows),
	})
	return opStat{dur: dur}, nil
}

// r2Version reads R2's version from a cache key's "R1@v1,R2@v7".
func r2Version(versions string) (int, error) {
	for _, part := range strings.Split(versions, ",") {
		if v, ok := strings.CutPrefix(part, "R2@v"); ok {
			return strconv.Atoi(v)
		}
	}
	return 0, fmt.Errorf("no R2 version in cache key %q", versions)
}

// verify checks every answer against a core.Reference full join of R1 with
// the R2 version the answer names, restricted to rows whose R1 anchor
// intersects the window — the service's window semantics.
func (d *serveRunner) verify(rec *recorder) (int, error) {
	rec.cacheStats(d.svc.Stats(), false)
	q, err := query.Parse(serveQuery)
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	answers, variant := d.answers, d.variant
	d.answers = nil
	d.mu.Unlock()
	refs := map[int]*anchoredRows{}
	bad := 0
	for _, a := range answers {
		v, ok := variant[a.r2v]
		if !ok {
			bad++
			continue
		}
		ref := refs[v]
		if ref == nil {
			if ref, err = referenceJoin(q, d.rel1, d.rel2[v]); err != nil {
				return 0, err
			}
			refs[v] = ref
		}
		if ref.window(a.win) != a.got {
			bad++
		}
	}
	return bad, nil
}

// anchoredRows is a full join's rows grouped by R1 tuple id, in canonical
// order, so a window's rows are the groups of the R1 tuples it intersects.
type anchoredRows struct {
	anchors *relation.Relation
	rows    []core.OutputTuple
	first   []int // first[id] .. first[id+1] are the rows of R1 tuple id
}

func referenceJoin(q *query.Query, r1, r2 *relation.Relation) (*anchoredRows, error) {
	rows, err := reference(q, []*relation.Relation{r1, r2})
	if err != nil {
		return nil, err
	}
	a := &anchoredRows{anchors: r1, rows: rows, first: make([]int, r1.Len()+1)}
	for _, t := range rows {
		a.first[t[0]+1]++
	}
	for i := 1; i < len(a.first); i++ {
		a.first[i] += a.first[i-1]
	}
	return a, nil
}

func (a *anchoredRows) window(w cache.Window) digest {
	d := newDigest()
	for _, t := range a.anchors.Tuples { // ids ascend from 0 in load order
		iv := t.Attrs[0]
		if iv.Start > w.Hi || iv.End < w.Lo {
			continue
		}
		for _, row := range a.rows[a.first[t.ID]:a.first[t.ID+1]] {
			d.add(row)
		}
	}
	return d
}
