package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// batchRunner runs one batch join per op, the way intervaljoin.Engine.Run
// does: parse, the provably-empty short cut, core.NewContext and the
// planner's algorithm. Each op gets a fresh in-memory store and engine, as
// one ijoin invocation does; a shared store would keep every run's output
// and grow with the run count.
type batchRunner struct {
	query string
	files []relFile
	rels  []*relation.Relation
	got   []digest
}

func newBatch(dir, q string, specs []workload.Spec) (*batchRunner, error) {
	d := &batchRunner{query: q}
	for _, s := range specs {
		f, err := writeRelation(dir, s)
		if err != nil {
			return nil, err
		}
		d.files = append(d.files, f)
	}
	return d, nil
}

func (d *batchRunner) describe() string {
	parts := make([]string, len(d.files))
	for i, f := range d.files {
		parts[i] = fmt.Sprintf("%s %d rows", f.name, f.rows)
	}
	return fmt.Sprintf("%q over %s", d.query, strings.Join(parts, ", "))
}

func (d *batchRunner) setup(rec *recorder) error {
	rels, err := loadAll(rec, d.files)
	if err != nil {
		return err
	}
	d.rels = rels
	return nil
}

// warm runs one join untimed, so the heap has grown to its working size.
func (d *batchRunner) warm(rec *recorder) (int, error) {
	_, err := d.op(-1, rec)
	return 1, err
}

func (d *batchRunner) op(_ int, rec *recorder) (opStat, error) {
	// Each ijoin invocation starts with an empty heap; collecting the
	// previous run's garbage first keeps one run's GC work out of the next.
	runtime.GC()
	start := time.Now()
	sp := rec.begin("query.parse")
	q, err := query.Parse(d.query)
	rec.addParse(time.Since(start))
	rec.end(sp)
	if err != nil {
		return opStat{dur: time.Since(start)}, err
	}
	var rows []core.OutputTuple
	if !query.ProvablyEmpty(q) {
		eng := mr.NewEngine(mr.Config{Store: rec.store(dfs.NewMem()), Tracer: rec.engineTracer()})
		ctx, err := core.NewContext(eng, q, d.rels, core.Options{})
		if err != nil {
			return opStat{dur: time.Since(start)}, err
		}
		res, err := rec.algorithm(core.Plan(q, false)).Run(ctx)
		if err != nil {
			return opStat{dur: time.Since(start)}, err
		}
		rows = res.Tuples
	}
	dur := time.Since(start)
	d.got = append(d.got, digestRows(rows))
	return opStat{dur: dur}, nil
}

// verify compares every run's rows with core.Reference on the same
// relations.
func (d *batchRunner) verify(*recorder) (int, error) {
	q, err := query.Parse(d.query)
	if err != nil {
		return 0, err
	}
	ref, err := reference(q, d.rels)
	if err != nil {
		return 0, err
	}
	want := digestRows(ref)
	bad := 0
	for _, g := range d.got {
		if g != want {
			bad++
		}
	}
	d.got = nil
	return bad, nil
}
