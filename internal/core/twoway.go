package core

import (
	"fmt"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// TwoWay computes a single-condition 2-way interval join in one MR cycle
// using the Figure 1 strategy table: depending on the Allen predicate, the
// two relations are projected, split or replicated so that every satisfying
// pair meets at exactly one reducer (Section 4).
type TwoWay struct{}

// Name implements Algorithm.
func (TwoWay) Name() string { return "two-way" }

// Run implements Algorithm.
func (tw TwoWay) Run(ctx *Context) (*Result, error) {
	opts := ctx.Opts.withDefaults(tw.Name())
	if len(ctx.Query.Conds) != 1 || len(ctx.Rels) != 2 {
		return nil, fmt.Errorf("core: two-way requires exactly one condition over two relations")
	}
	if cls := ctx.Query.Classify(); cls == query.General {
		return nil, fmt.Errorf("core: two-way handles single-attribute queries only, got %v", cls)
	}
	if err := ctx.Stage(); err != nil {
		return nil, err
	}
	plan, err := ctx.makePlan(tw.Name(), opts.Partitions, 2)
	if err != nil {
		return nil, err
	}
	part := plan.part

	cond := ctx.Query.Conds[0]
	strategy := interval.JoinStrategy(cond.Pred)
	opOf := map[int]interval.Op{
		cond.Left.Rel:  strategy.Left,
		cond.Right.Rel: strategy.Right,
	}

	// Shared across reduce calls: the plan is static and per-run state is
	// pooled inside the enumerator. Binding order is (left, right), so the
	// right relation's level gets the specialized columnar kernel.
	e := newEnumerator(ctx.Query.Conds, []int{cond.Left.Rel, cond.Right.Rel}).
		withTracer(ctx.Engine.Tracer())
	lvl := make([]int, len(ctx.Rels))
	for r := range lvl {
		lvl[r] = -1
	}
	lvl[cond.Left.Rel] = 0
	lvl[cond.Right.Rel] = 1

	job := mr.Job{
		Name: opts.Scratch + "/join",
		Inputs: []mr.Input{
			ctx.relInput(0, 0),
			ctx.relInput(1, 1),
		},
		Map: func(tag int, record string, emit mr.Emitter) error {
			_, t, err := relation.DecodeRecord(record)
			if err != nil {
				return err
			}
			first, last := part.Apply(opOf[tag], t.Attrs[0])
			plan.emitRange(emit, first, last, tag, encodeTagged(tag, t))
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			// Exactly one reducer sees each satisfying pair: the strategy
			// projects at least one side, so no dedup filter is needed.
			var outErr error
			err := e.runTagged(values, lvl, func(asg []relation.Tuple) {
				if outErr != nil {
					return
				}
				out := make(OutputTuple, 2)
				out[cond.Left.Rel] = asg[0].ID
				out[cond.Right.Rel] = asg[1].ID
				outErr = write(relation.EncodeRow(out))
			})
			if err != nil {
				return err
			}
			return outErr
		},
		Output:     opts.Scratch + "/output",
		SortValues: opts.SortValues,
		Meta:       ctx.jobMeta(tw.Name(), 1),
	}
	metrics, err := ctx.Engine.Run(job)
	if err != nil {
		return nil, err
	}
	metrics.Plan = plan.info()
	res := &Result{Algorithm: tw.Name(), Metrics: metrics, PerCycle: []*mr.Metrics{metrics}}
	if err := readOutput(ctx, job.Output, res); err != nil {
		return nil, err
	}
	res.SortTuples()
	return res, nil
}
