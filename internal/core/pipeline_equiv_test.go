package core

import (
	"math/rand"
	"testing"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// runSingle executes one algorithm on a fresh store with a pinned scratch
// directory and returns the result plus the final output file's lines.
func runSingle(t *testing.T, alg Algorithm, q *query.Query, rels []*relation.Relation, opts Options) (*Result, []string) {
	t.Helper()
	store := dfs.NewMem()
	engine := mr.NewEngine(mr.Config{Store: store, Workers: 4})
	ctx, err := NewContext(engine, q, rels, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alg.Run(ctx)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	lines, err := dfs.ReadAll(store, opts.Scratch+"/output")
	if err != nil {
		t.Fatalf("%s: reading output: %v", alg.Name(), err)
	}
	return res, lines
}

// TestPipelinedMatchesMaterialized runs every multi-cycle algorithm on the
// pipelined executor and checks it against the store-barrier execution that
// Hadoop performs: the rows must equal the Reference oracle's, and the
// statistics the stage taps count on the fly (flaggedTap, prunedTap) must
// equal the table below. The table was taken from runs that wrote every
// cycle boundary to the store and counted the replicated and pruned
// intervals by reading the written files back, so it checks the taps
// against an independent count. Each case seeds its relations from its own
// source (42+i), so a single subtest run with -run sees the same data.
func TestPipelinedMatchesMaterialized(t *testing.T) {
	cases := []struct {
		name       string
		alg        Algorithm
		query      string
		replicated int64
		pruned     map[int]int64 // nonzero entries only
		cycles     int
	}{
		{"cascade", Cascade{}, "R1 overlaps R2 and R2 overlaps R3", 0, nil, 2},
		{"cascade-matrix", Cascade{MatrixSteps: true}, "R1 before R2 and R2 before R3", 0, nil, 2},
		{"rccis", RCCIS{}, "R1 overlaps R2 and R2 overlaps R3", 76, nil, 2},
		{"all-seq-matrix", SeqMatrix{}, "R1 overlaps R2 and R2 overlaps R3", 48, nil, 2},
		{"all-seq-matrix-hybrid", SeqMatrix{}, "R1 before R2 and R1 overlaps R3", 14, nil, 2},
		{"fcts", FCTS{}, "R1 overlaps R2 and R2 overlaps R3", 59, nil, 3},
		{"fcts-hybrid", FCTS{}, "R1 before R2 and R1 overlaps R3", 13, nil, 3},
		{"pasm", PASM{}, "R1 overlaps R2 and R2 overlaps R3", 44, map[int]int64{0: 14, 1: 18, 2: 18}, 3},
		{"pasm-hybrid", PASM{}, "R1 before R2 and R1 overlaps R3", 12, map[int]int64{0: 6, 2: 9}, 3},
		{"gen-matrix", GenMatrix{}, "R1 before R2 and R1 overlaps R3", 7, nil, 3},
	}
	// Guard against a vacuous table: both tapped statistics must be
	// exercised by at least one case.
	var anyReplicated, anyPruned bool
	for _, tc := range cases {
		anyReplicated = anyReplicated || tc.replicated > 0
		anyPruned = anyPruned || len(tc.pruned) > 0
	}
	if !anyReplicated || !anyPruned {
		t.Fatal("the table needs a case with replicated intervals and one with pruned intervals")
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + i)))
			q := query.MustParse(tc.query)
			rels := make([]*relation.Relation, len(q.Relations))
			for j, s := range q.Relations {
				rels[j] = randomRelation(rng, s.Name, 45, 160, 30)
			}
			opts := Options{
				Partitions: 6, PartitionsPerDim: 4,
				Scratch: "equiv", SortValues: true,
			}
			got, _ := runSingle(t, tc.alg, q, rels, opts)
			refCtx, err := NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem()}), q, rels, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Reference{}.Run(refCtx)
			if err != nil {
				t.Fatal(err)
			}
			if err := DiffRows(got.Tuples, want.Tuples); err != nil {
				t.Errorf("rows differ from the reference: %v", err)
			}
			if got.ReplicatedIntervals != tc.replicated {
				t.Errorf("replicated: %d pipelined, %d materialized", got.ReplicatedIntervals, tc.replicated)
			}
			for k, v := range tc.pruned {
				if got.PrunedIntervals[k] != v {
					t.Errorf("pruned[%d]: %d pipelined, %d materialized", k, got.PrunedIntervals[k], v)
				}
			}
			for k, v := range got.PrunedIntervals {
				if v != 0 && tc.pruned[k] != v {
					t.Errorf("pruned[%d]: %d pipelined, %d materialized", k, v, tc.pruned[k])
				}
			}
			if got.Metrics.Cycles != tc.cycles {
				t.Errorf("cycles: %d pipelined, %d materialized", got.Metrics.Cycles, tc.cycles)
			}
			if got.Metrics.StreamedPairs == 0 {
				t.Error("pipelined run streamed no pairs across cycle boundaries")
			}
		})
	}
}
