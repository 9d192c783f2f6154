package core

import (
	"fmt"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// AllMatrix handles multi-way sequence join queries in a single MR cycle
// (Section 7.1). The m relations span an m-dimensional cross-product space;
// each axis is divided into o partitions, every cell is a reducer, and only
// the cells consistent with the less-than order of the query's predicates
// receive any data (condition D1). A tuple of relation k whose interval
// starts in partition q is sent to every consistent cell whose k-th
// coordinate equals q (condition D2), which routes each output tuple to
// exactly one reducer and spreads the load that All-Replicate piles onto the
// right-most reducers evenly across the grid (Figure 4).
type AllMatrix struct {
	// DisableConsistencyFilter drops condition D1 (ablation): tuples are
	// routed to every cell with the matching coordinate, including cells
	// that provably produce no output.
	DisableConsistencyFilter bool
	// BroadcastAllCells drops condition D2 (ablation): every tuple goes to
	// every consistent cell, demonstrating why D2 matters. Output is
	// deduplicated by designating the cell that matches every tuple's
	// start partition.
	BroadcastAllCells bool
}

// Name implements Algorithm.
func (a AllMatrix) Name() string {
	switch {
	case a.DisableConsistencyFilter:
		return "all-matrix-nofilter"
	case a.BroadcastAllCells:
		return "all-matrix-broadcast"
	}
	return "all-matrix"
}

// Run implements Algorithm.
func (a AllMatrix) Run(ctx *Context) (*Result, error) {
	opts := ctx.Opts.withDefaults(a.Name())
	if cls := ctx.Query.Classify(); cls != query.Sequence {
		return nil, fmt.Errorf("core: all-matrix handles sequence queries, got %v", cls)
	}
	if err := ctx.Stage(); err != nil {
		return nil, err
	}
	m := len(ctx.Rels)
	part, err := ctx.makePartitioning(opts.PartitionsPerDim)
	if err != nil {
		return nil, err
	}
	o := part.Len()
	g, err := grid.NewUniform(m, o)
	if err != nil {
		return nil, err
	}

	// Less-than order constraints: dimension k carries relation k.
	var cons []grid.Less
	if !a.DisableConsistencyFilter {
		for _, p := range ctx.Query.LessThanPairs() {
			cons = append(cons, grid.Less{A: p[0], B: p[1]})
		}
	}

	inputs := make([]mr.Input, m)
	for ri := range ctx.Rels {
		inputs[ri] = ctx.relInput(ri, ri)
	}

	// Shared across reduce calls: the plan is static and per-run state is
	// pooled inside the enumerator.
	e := newEnumerator(ctx.Query.Conds, allRelations(m)).withTracer(ctx.Engine.Tracer())
	lvl := identityLevels(m)

	job := mr.Job{
		Name:   opts.Scratch + "/join",
		Inputs: inputs,
		Map: func(tag int, record string, emit mr.Emitter) error {
			_, t, err := relation.DecodeRecord(record)
			if err != nil {
				return err
			}
			q := part.Project(t.Key())
			enc := encodeTagged(tag, t)
			bounds := g.FreeBounds()
			if !a.BroadcastAllCells {
				bounds[tag] = grid.Bound{Min: q, Max: q} // condition D2
			}
			g.EnumerateRuns(bounds, cons, func(lo, hi int64) { emit.EmitRange(lo, hi, enc) })
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			coord := g.Coord(key, nil)
			var outErr error
			err := e.runTagged(values, lvl, func(asg []relation.Tuple) {
				if outErr != nil {
					return
				}
				// Exactly-once: the designated cell matches every
				// tuple's start partition. Under D2 routing this holds
				// automatically; under the broadcast ablation it filters
				// the duplicates.
				for k, t := range asg {
					if part.Project(t.Key()) != coord[k] {
						return
					}
				}
				out := make(OutputTuple, len(asg))
				for i, t := range asg {
					out[i] = t.ID
				}
				outErr = write(relation.EncodeRow(out))
			})
			if err != nil {
				return err
			}
			return outErr
		},
		Output:     opts.Scratch + "/output",
		SortValues: opts.SortValues,
		Meta:       ctx.jobMeta(a.Name(), 1),
	}
	metrics, err := ctx.Engine.Run(job)
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: a.Name(), Metrics: metrics, PerCycle: []*mr.Metrics{metrics}}
	if err := readOutput(ctx, job.Output, res); err != nil {
		return nil, err
	}
	res.SortTuples()
	return res, nil
}
