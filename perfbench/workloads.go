package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

// benchWorkload is one set of inputs and traffic. Why each was chosen is
// recorded in BENCHMARK.json and perfbench/README.md.
type benchWorkload struct {
	name    string
	clients int
	// tail is the latency percentile op_tail_ms reports: the highest one
	// that keeps at least ten ops beyond it at the benchmark's 30-second
	// run length. It is fixed per workload so it never depends on speed.
	tail     float64
	service  bool // a cache.Service client rather than batch joins
	generate func(dir string, seed int64) (runner, error)
}

var workloads = []benchWorkload{
	// The paper's colocation class: a 3-way overlaps chain that the planner
	// runs as RCCIS in two pipelined MR cycles; shuffle and codec heavy.
	// About 45 joins fit in a run.
	{name: "batch-coloc", clients: 1, tail: 0.75, generate: func(dir string, seed int64) (runner, error) {
		return newBatch(dir, "R1 overlaps R2 and R2 overlaps R3", []workload.Spec{
			workload.Table3Spec("R1", 20_000, 120, seed),
			workload.Table3Spec("R2", 20_000, 120, seed+1),
			workload.Table3Spec("R3", 20_000, 120, seed+2),
		})
	}},
	// Zipf starts under uniform boundaries: one straggler reducer decides
	// the wall time while shuffle and codec work stay small. About 20 joins
	// fit in a run, so its tail is the median.
	{name: "batch-skew", clients: 1, tail: 0.5, generate: func(dir string, seed int64) (runner, error) {
		return newBatch(dir, "R1 overlaps R2", []workload.Spec{
			workload.HeavyTailSpec("R1", 4_000, seed),
			workload.HeavyTailSpec("R2", 4_000, seed+1),
		})
	}},
	// The windowed-query service under a zipfian mix with writes: cache
	// hits, delta joins over resident files, invalidation and eviction.
	// About 3,000 queries fit in a run.
	{name: "serve-zipf", clients: 1, tail: 0.99, service: true, generate: func(dir string, seed int64) (runner, error) {
		return newServe(dir, seed)
	}},
	// The same mix with two closed-loop clients. Not gated: it is too
	// unsteady today (engine runs serialize on the service's run lock).
	{name: "serve-zipf-2c", clients: 2, tail: 0.99, service: true, generate: func(dir string, seed int64) (runner, error) {
		return newServe(dir, seed)
	}},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// relFile is a generated relation written as a text file, the way users
// of ijoin and ijoind hand relations to the program.
type relFile struct {
	name, path string
	rows       int
}

func writeRelation(dir string, s workload.Spec) (relFile, error) {
	rel, err := workload.Generate(s)
	if err != nil {
		return relFile{}, err
	}
	path := filepath.Join(dir, s.Name+"-seed"+fmt.Sprint(s.Seed)+".txt")
	if err := relation.SaveFile(rel, path); err != nil {
		return relFile{}, err
	}
	return relFile{name: s.Name, path: path, rows: rel.Len()}, nil
}

// loadAll loads the files through relation.LoadFile, one relation.load span
// each, and records the set-up's summed load time.
func loadAll(rec *recorder, files []relFile) ([]*relation.Relation, error) {
	rels := make([]*relation.Relation, len(files))
	var total time.Duration
	for i, f := range files {
		sp := rec.begin("relation.load")
		start := time.Now()
		rel, err := relation.LoadFile(relation.NewSchema(f.name), f.path)
		total += time.Since(start)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		rels[i] = rel
	}
	rec.addLoad(total)
	return rels, nil
}

// reference runs the core.Reference oracle over the relations.
func reference(q *query.Query, rels []*relation.Relation) ([]core.OutputTuple, error) {
	ctx, err := core.NewContext(mr.NewEngine(mr.Config{Store: dfs.NewMem()}), q, rels, core.Options{})
	if err != nil {
		return nil, err
	}
	res, err := core.Reference{}.Run(ctx)
	if err != nil {
		return nil, err
	}
	return res.Tuples, nil
}

// digest identifies a row set by its size and an FNV-1a hash of its rows
// in canonical order, so answers can be checked without keeping them.
type digest struct {
	rows int
	sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest() digest { return digest{sum: fnvOffset} }

func (d *digest) add(t core.OutputTuple) {
	h := d.sum
	for _, id := range t {
		for b := 0; b < 64; b += 8 {
			h ^= uint64(id>>b) & 0xff
			h *= fnvPrime
		}
	}
	h ^= 0xff // row separator, so (1,2)(3) and (1)(2,3) differ
	h *= fnvPrime
	d.sum = h
	d.rows++
}

// digestRows digests rows after sorting them canonically.
func digestRows(rows []core.OutputTuple) digest {
	if !slices.IsSortedFunc(rows, compareRows) {
		rows = slices.Clone(rows)
		slices.SortFunc(rows, compareRows)
	}
	d := newDigest()
	for _, t := range rows {
		d.add(t)
	}
	return d
}

func compareRows(a, b core.OutputTuple) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			if a[k] < b[k] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}
