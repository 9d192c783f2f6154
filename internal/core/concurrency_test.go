package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// TestConcurrentRunsShareEngine: several runs — including the same
// algorithm — execute concurrently against one engine and store without
// interfering; every result matches the oracle. This exercises the default
// scratch namespacing.
func TestConcurrentRunsShareEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rels := make([]*relation.Relation, 3)
	for i, s := range q.Relations {
		rels[i] = randomRelation(rng, s.Name, 60, 150, 25)
	}
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 4})
	refCtx, err := NewContext(engine, q, rels, Options{Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference{}.Run(refCtx)
	if err != nil {
		t.Fatal(err)
	}

	algs := []Algorithm{RCCIS{}, RCCIS{}, RCCIS{}, AllRep{}, AllRep{}, SeqMatrix{}, Cascade{}}
	var wg sync.WaitGroup
	errs := make(chan error, len(algs))
	for i, alg := range algs {
		wg.Add(1)
		go func(i int, alg Algorithm) {
			defer wg.Done()
			ctx, err := NewContext(engine, q, rels, Options{Partitions: 6, PartitionsPerDim: 4})
			if err != nil {
				errs <- err
				return
			}
			res, err := alg.Run(ctx)
			if err != nil {
				errs <- err
				return
			}
			if err := DiffRows(res.Tuples, want.Tuples); err != nil {
				errs <- fmt.Errorf("concurrent run %d (%s): %v", i, alg.Name(), err)
			}
		}(i, alg)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExplicitScratchIsolation: runs with distinct explicit scratch
// prefixes do not clobber each other's files.
func TestExplicitScratchIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	q := query.MustParse("R1 overlaps R2")
	rels := []*relation.Relation{
		randomRelation(rng, "R1", 40, 100, 20),
		randomRelation(rng, "R2", 40, 100, 20),
	}
	engine := mr.NewEngine(mr.Config{Store: dfs.NewMem(), Workers: 2})
	run := func(scratch string) int {
		ctx, err := NewContext(engine, q, rels, Options{Partitions: 4, Scratch: scratch})
		if err != nil {
			t.Fatal(err)
		}
		res, err := (TwoWay{}).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Tuples)
	}
	a := run("runA")
	b := run("runB")
	if a != b {
		t.Fatalf("scratch-isolated runs disagree: %d vs %d", a, b)
	}
	// Both scratch outputs still exist independently.
	for _, name := range []string{"runA/output", "runB/output"} {
		if !engine.Store().Exists(name) {
			t.Fatalf("output %s missing", name)
		}
	}
}
