package core

import (
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// TestDiskStoreWithSpillEndToEnd runs the paper's Q1 on an engine whose
// store is on disk and whose shuffle spills, end to end: the most
// Hadoop-like configuration the engine supports. Guarded by -short.
func TestDiskStoreWithSpillEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("disk+spill integration test skipped in -short mode")
	}
	disk, err := dfs.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	engine := mr.NewEngine(mr.Config{
		Store:              disk,
		Workers:            4,
		SpillPairThreshold: 512,
		MaxTaskAttempts:    2,
	})
	q := query.MustParse("R1 overlaps R2 and R2 overlaps R3")
	rels := make([]*relation.Relation, 3)
	for i, s := range q.Relations {
		r, err := workload.Generate(workload.Table1Spec(s.Name, 3_000, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = r
	}
	refCtx, err := NewContext(engine, q, rels, Options{Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference{}.Run(refCtx)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{RCCIS{}, AllRep{}, Cascade{}} {
		ctx, err := NewContext(engine, q, rels, Options{Partitions: 16})
		if err != nil {
			t.Fatal(err)
		}
		got, err := alg.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if got.Metrics.SpillRuns == 0 {
			t.Errorf("%s: expected shuffle spills at threshold 512", alg.Name())
		}
		if err := DiffRows(got.Tuples, want.Tuples); err != nil {
			t.Fatalf("%s on disk+spill: %v", alg.Name(), err)
		}
	}
}
