package core

import (
	"intervaljoin/internal/mr"
	"intervaljoin/internal/relation"
)

// Reference is the correctness oracle: a direct in-memory backtracking
// nested-loop join, with no MapReduce involved. Every distributed algorithm
// in this package must produce exactly Reference's output set; the property
// tests enforce this.
type Reference struct{}

// Name implements Algorithm.
func (Reference) Name() string { return "reference" }

// Run implements Algorithm.
func (Reference) Run(ctx *Context) (*Result, error) {
	res := &Result{Algorithm: "reference", Metrics: mr.NewMetrics("reference")}
	res.Metrics.Cycles = 0
	rels := make([]int, len(ctx.Rels))
	cands := make([][]relation.Tuple, len(ctx.Rels))
	for i, r := range ctx.Rels {
		rels[i] = i
		cands[i] = r.Tuples
	}
	// Honor the window restriction the engine drivers apply at feed time:
	// relation 0 keeps only tuples whose first attribute intersects the
	// closed window.
	if w := ctx.Opts.Window; w != nil {
		kept := make([]relation.Tuple, 0, len(cands[0]))
		for _, t := range cands[0] {
			if t.Attrs[0].Start <= w[1] && t.Attrs[0].End >= w[0] {
				kept = append(kept, t)
			}
		}
		cands[0] = kept
	}
	e := newEnumerator(ctx.Query.Conds, rels)
	e.run(cands, func(asg []relation.Tuple) {
		out := make(OutputTuple, len(asg))
		for i, t := range asg {
			out[i] = t.ID
		}
		res.Tuples = append(res.Tuples, out)
	})
	res.SortTuples()
	return res, nil
}
