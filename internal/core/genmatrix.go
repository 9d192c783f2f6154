package core

import (
	"cmp"
	"fmt"
	"slices"

	"intervaljoin/internal/grid"
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// GenMatrix generalises All-Seq-Matrix to queries over multiple interval
// attributes and real-valued attributes (Section 9). The join graph's
// vertices are (relation, attribute) pairs; dropping sequence edges yields l
// colocation components, each with its own attribute range and partitioning,
// spanning an l-dimensional consistent-cell grid.
//
// Because a relation may own vertices in several components, a tuple's grid
// routing depends on the RCCIS flags of all its vertices jointly; the flags
// are computed per component in cycle 1 (one record per vertex) and
// assembled per tuple in a short merge cycle before the grid join — the one
// mechanical step the paper leaves implicit. Relations whose every vertex
// sits in a distinct component need the merge only when they have more than
// one vertex; single-attribute queries degrade to All-Seq-Matrix's two
// cycles.
//
// Real-valued attributes are length-zero intervals: they never cross a
// partition boundary, so their components replicate nothing and the grid
// dimension degenerates to hash partitioning, exactly as Section 9 argues.
type GenMatrix struct{}

// Name implements Algorithm.
func (GenMatrix) Name() string { return "gen-matrix" }

// vertexInfo locates one vertex of a relation: its component and attribute.
type vertexInfo struct {
	comp, attr int
}

// relVertices returns, per relation, its vertices sorted by (component,
// attribute) — the canonical flag-vector order.
func relVertices(d *query.Decomposition, m int) [][]vertexInfo {
	out := make([][]vertexInfo, m)
	for op, ci := range d.CompOf {
		out[op.Rel] = append(out[op.Rel], vertexInfo{comp: ci, attr: op.Attr})
	}
	for r := range out {
		vs := out[r]
		slices.SortFunc(vs, func(a, b vertexInfo) int {
			if c := cmp.Compare(a.comp, b.comp); c != 0 {
				return c
			}
			return cmp.Compare(a.attr, b.attr)
		})
	}
	return out
}

// Run implements Algorithm.
func (a GenMatrix) Run(ctx *Context) (*Result, error) {
	opts := ctx.Opts.withDefaults(a.Name())
	if err := ctx.Stage(); err != nil {
		return nil, err
	}
	d := query.Decompose(ctx.Query)
	if d.Contradictory {
		return &Result{Algorithm: a.Name(), Metrics: mr.NewMetrics(a.Name())}, nil
	}
	m := len(ctx.Rels)
	verts := relVertices(d, m)
	for ci := range d.Components {
		seenRel := make(map[int]bool)
		for _, v := range d.Components[ci].Vertices {
			if seenRel[v.Rel] {
				return nil, fmt.Errorf("core: gen-matrix does not support two attributes of %s in one colocation component",
					ctx.Query.Relations[v.Rel].Name)
			}
			seenRel[v.Rel] = true
		}
	}

	// Per-component partitionings over the component's own attribute range.
	parts, err := componentPartitionings(ctx, d, opts.PartitionsPerDim)
	if err != nil {
		return nil, err
	}

	marked := opts.Scratch + "/marked"
	merged := opts.Scratch + "/merged"
	markJob := a.markJob(ctx, opts, d, parts, marked)
	markJob.Meta = ctx.jobMeta(a.Name(), 1)
	mergeJob := a.mergeJob(ctx, opts, verts, marked, merged)
	mergeJob.Meta = ctx.jobMeta(a.Name(), 2)
	joinJob, err := a.joinJob(ctx, opts, d, parts, verts, merged, opts.Scratch+"/output")
	if err != nil {
		return nil, err
	}
	joinJob.Meta = ctx.jobMeta(a.Name(), 3)

	var replicated int64
	perCycle, agg, err := ctx.Engine.RunPipeline(
		mr.Stage{Job: markJob},
		// Count tuples with a replicate-flagged vertex as they stream
		// out of the merge cycle.
		mr.Stage{Job: mergeJob, Tap: flaggedTap(&replicated)},
		mr.Stage{Job: joinJob},
	)
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: a.Name(), Metrics: agg, PerCycle: perCycle, ReplicatedIntervals: replicated}
	if err := readOutput(ctx, joinJob.Output, res); err != nil {
		return nil, err
	}
	res.SortTuples()
	return res, nil
}

// componentPartitionings builds one o-partition partitioning per component,
// spanning the bounds of the component's vertex columns. Components related
// by a sequence order constraint compare partition indices across their two
// grid dimensions, so every group of order-connected components shares one
// partitioning over the union of the group's bounds (the paper's "each
// dimension spanning identical temporal range").
func componentPartitionings(ctx *Context, d *query.Decomposition, o int) ([]interval.Partitioning, error) {
	l := len(d.Components)
	// Union-find over components along order edges.
	group := make([]int, l)
	for i := range group {
		group[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for group[x] != x {
			group[x] = group[group[x]]
			x = group[x]
		}
		return x
	}
	for _, e := range d.Less {
		a, b := find(e[0]), find(e[1])
		if a != b {
			group[b] = a
		}
	}
	// Per-group bounds over all member components' vertex columns.
	type bounds struct {
		t0, tn interval.Point
		set    bool
	}
	groupBounds := make(map[int]*bounds)
	for ci := range d.Components {
		g := find(ci)
		gb := groupBounds[g]
		if gb == nil {
			gb = &bounds{}
			groupBounds[g] = gb
		}
		for _, v := range d.Components[ci].Vertices {
			a0, an, ok := relation.AttrBounds(ctx.Rels[v.Rel], v.Attr)
			if !ok {
				continue
			}
			if !gb.set {
				gb.t0, gb.tn, gb.set = a0, an, true
				continue
			}
			if a0 < gb.t0 {
				gb.t0 = a0
			}
			if an > gb.tn {
				gb.tn = an
			}
		}
	}
	// With equi-depth partitioning, each group's boundaries come from the
	// quantiles of its own vertex columns' start points.
	groupSamples := make(map[int][]interval.Point)
	if ctx.Opts.EquiDepth {
		for ci := range d.Components {
			g := find(ci)
			for _, v := range d.Components[ci].Vertices {
				rel := ctx.Rels[v.Rel]
				stride := rel.Len()/sampleBudget + 1
				for i, t := range rel.Tuples {
					if i%stride == 0 {
						groupSamples[g] = append(groupSamples[g], t.Attrs[v.Attr].Start)
					}
				}
			}
		}
	}
	groupParts := make(map[int]interval.Partitioning)
	parts := make([]interval.Partitioning, l)
	for ci := range d.Components {
		g := find(ci)
		if p, ok := groupParts[g]; ok {
			parts[ci] = p // order-related components share one partitioning
			continue
		}
		gb := groupBounds[g]
		t0, tn := gb.t0, gb.tn
		if !gb.set {
			t0, tn = 0, 1 // empty component data; any range works
		}
		var p interval.Partitioning
		var err error
		if ctx.Opts.EquiDepth {
			p, err = interval.NewEquiDepth(t0, tn, o, groupSamples[g])
		} else {
			p, err = interval.MakeUniform(t0, tn, o)
		}
		if err != nil {
			return nil, err
		}
		groupParts[g] = p
		parts[ci] = p
	}
	return parts, nil
}

// markJob is cycle 1: RCCIS marking per component over vertex values. The
// output holds one flagged record per (tuple, vertex).
func (GenMatrix) markJob(ctx *Context, opts Options, d *query.Decomposition,
	parts []interval.Partitioning, output string) mr.Job {

	inputs := make([]mr.Input, len(ctx.Rels))
	for ri := range ctx.Rels {
		inputs[ri] = ctx.relInput(ri, ri)
	}
	// Vertices per relation per component, and per-component reducers.
	attrOfComp := make([]map[int]int, len(d.Components)) // comp -> rel -> attr
	relsOfComp := make([][]int, len(d.Components))
	for op, ci := range d.CompOf {
		if attrOfComp[ci] == nil {
			attrOfComp[ci] = make(map[int]int)
		}
		attrOfComp[ci][op.Rel] = op.Attr
		relsOfComp[ci] = append(relsOfComp[ci], op.Rel)
	}
	reducers := make([]mr.ReduceFunc, len(d.Components))
	for ci := range d.Components {
		slices.Sort(relsOfComp[ci])
		// The marked records carry the vertex attribute the merge cycle
		// groups flags by.
		reducers[ci] = markReducerAttrs(d.SubQueryConds(ci), parts[ci], relsOfComp[ci], attrOfComp[ci])
	}
	o := int64(opts.PartitionsPerDim)
	compOfVertex := d.CompOf

	return mr.Job{
		Name:   opts.Scratch + "/mark",
		Inputs: inputs,
		Map: func(tag int, record string, emit mr.Emitter) error {
			_, t, err := relation.DecodeRecord(record)
			if err != nil {
				return err
			}
			for op, ci := range compOfVertex {
				if op.Rel != tag {
					continue
				}
				first, last := parts[ci].Split(t.Attrs[op.Attr])
				// Keys within one component block are contiguous.
				emit.EmitRange(int64(ci)*o+int64(first), int64(ci)*o+int64(last), encodeTagged(tag, t))
			}
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			ci := int(key / o)
			return reducers[ci](key%o, values, write)
		},
		Output:     output,
		SortValues: opts.SortValues,
	}
}

// mergeJob is cycle 2: group the per-vertex flags by tuple and emit one
// flag-vector record per tuple.
func (GenMatrix) mergeJob(ctx *Context, opts Options, verts [][]vertexInfo, input, output string) mr.Job {
	m := int64(len(ctx.Rels))
	return mr.Job{
		Name:   opts.Scratch + "/merge",
		Inputs: []mr.Input{{File: input}},
		Map: func(_ int, record string, emit mr.Emitter) error {
			h, t, err := relation.DecodeRecord(record)
			if err != nil {
				return err
			}
			emit.Emit(t.ID*m+int64(h.Rel), record)
			return nil
		},
		Reduce: func(key int64, values []string, write func(string) error) error {
			rel := int(key % m)
			vs := verts[rel]
			flags := make([]bool, len(vs))
			var tuple relation.Tuple
			for i, v := range values {
				h, t, err := relation.DecodeRecord(v)
				if err != nil {
					return err
				}
				if h.Rel != rel {
					return fmt.Errorf("core: gen-matrix merge: relation mismatch %d vs %d", h.Rel, rel)
				}
				if i == 0 {
					tuple = t
				}
				found := false
				for vi, info := range vs {
					if info.attr == h.Attr {
						flags[vi] = flags[vi] || h.Flagged()
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("core: gen-matrix merge: unknown vertex attribute %d of relation %d", h.Attr, rel)
				}
			}
			return write(relation.EncodeRecord(relation.Header{Rel: rel, Flags: flags}, tuple))
		},
		Output:     output,
		SortValues: opts.SortValues,
	}
}

// joinJob is cycle 3: route each tuple into the grid jointly per its vertex
// flags and join per cell.
func (GenMatrix) joinJob(ctx *Context, opts Options, d *query.Decomposition,
	parts []interval.Partitioning, verts [][]vertexInfo, input, output string) (mr.Job, error) {

	l := d.NumComponents()
	dims := make([]int, l)
	for i := range dims {
		dims[i] = parts[i].Len()
	}
	g, err := grid.New(dims)
	if err != nil {
		return mr.Job{}, err
	}
	cons := soundComponentLess(d)
	m := len(ctx.Rels)

	mapFn := func(_ int, record string, emit mr.Emitter) error {
		h, t, err := relation.DecodeRecord(record)
		if err != nil {
			return err
		}
		rel, flags := h.Rel, h.Flags
		if len(flags) != len(verts[rel]) {
			return fmt.Errorf("core: gen-matrix: flag vector arity %d, want %d", len(flags), len(verts[rel]))
		}
		bounds := g.FreeBounds()
		for vi, info := range verts[rel] {
			q := parts[info.comp].Project(t.Attrs[info.attr])
			if flags[vi] {
				b := bounds[info.comp]
				if q > b.Min {
					b.Min = q
				}
				bounds[info.comp] = b // E2, replicated: i_k >= q
			} else {
				bounds[info.comp] = grid.Bound{Min: q, Max: q} // E2: i_k = q
			}
		}
		enc := encodeTagged(rel, t)
		g.EnumerateRuns(bounds, cons, func(lo, hi int64) { emit.EmitRange(lo, hi, enc) })
		return nil
	}

	// Shared across reduce calls: the plan is static and per-run state is
	// pooled inside the enumerator.
	e := newEnumerator(ctx.Query.Conds, allRelations(m)).withTracer(ctx.Engine.Tracer())
	lvl := identityLevels(m)
	reduceFn := func(key int64, values []string, write func(string) error) error {
		coord := g.Coord(key, nil)
		var outErr error
		err := e.runTagged(values, lvl, func(asg []relation.Tuple) {
			if outErr != nil {
				return
			}
			for ci := range d.Components {
				maxStart := interval.Point(0)
				first := true
				for _, v := range d.Components[ci].Vertices {
					s := asg[v.Rel].Attrs[v.Attr].Start
					if first || s > maxStart {
						maxStart, first = s, false
					}
				}
				if parts[ci].IndexOf(maxStart) != coord[ci] {
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
	}

	return mr.Job{
		Name:       opts.Scratch + "/join",
		Inputs:     []mr.Input{{File: input}},
		Map:        mapFn,
		Reduce:     reduceFn,
		Output:     output,
		SortValues: opts.SortValues,
	}, nil
}
