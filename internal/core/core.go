// Package core implements the paper's contribution: the map-reduce interval
// join algorithms. It contains the 2-way strategies of Figure 1, the naive
// baselines (2-way Cascade and All-Replicate), and the four main algorithms
// RCCIS (Section 6), All-Matrix (Section 7), All-Seq-Matrix and
// Pruned-All-Seq-Matrix (Section 8) and Gen-Matrix (Section 9), plus a
// nested-loop reference join used as a correctness oracle.
//
// All algorithms implement the Algorithm interface and run on the mr.Engine
// against relations staged on its dfs.Store, producing a Result: the decoded
// output tuples plus the engine metrics the paper's evaluation compares
// (intermediate pairs, replicated intervals, per-reducer load, cycles).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// Options tune an algorithm run.
type Options struct {
	// Partitions is the number of partition-intervals (= reducers) for the
	// one-dimensional algorithms and for each RCCIS sub-run. Defaults to
	// 16, the paper's cluster size.
	Partitions int
	// PartitionsPerDim is o, the number of partitions per grid dimension
	// for the matrix algorithms. Defaults to 6 (the paper's Section 7.1
	// configuration).
	PartitionsPerDim int
	// Range optionally pins the time range [Range[0], Range[1]) used to
	// build partitionings. When nil it is derived from the data.
	Range *[2]interval.Point
	// Scratch prefixes the intermediate and output file names on the
	// store, so concurrent runs do not collide. Defaults to the
	// algorithm name.
	Scratch string
	// SortValues makes every MR cycle deterministic; costs a sort.
	SortValues bool
	// EquiDepth derives partition boundaries from quantiles of the data's
	// start points instead of splitting the range uniformly, so skewed
	// data still loads reducers evenly (the skew handling the paper notes
	// that "uniformly distributed data vs skewed data will need to be
	// processed differently").
	EquiDepth bool
	// Materialize runs multi-cycle algorithms as sequential MR cycles with
	// every cycle boundary written to the store and re-read — Hadoop's
	// HDFS-barrier behaviour. By default the cycles run on the engine's
	// pipelined executor, which streams cycle boundaries and overlaps one
	// cycle's reduce phase with the next cycle's map phase.
	Materialize bool
	// Adaptive turns on the skew-aware planner: partition boundaries fall
	// back to equi-depth when the start-point histogram predicts a
	// straggler factor worth acting on, and partitions whose projected
	// load exceeds SplitThreshold× the mean are expanded into up to
	// MaxVirtual virtual reducers via a cell cover over the join's input
	// streams. Output is identical to the non-adaptive run; only the
	// reduce-key layout (and so the load balance) changes.
	Adaptive bool
	// SplitThreshold is the load/mean ratio beyond which the adaptive
	// planner splits a partition (0 selects cost.DefaultSplitThreshold).
	SplitThreshold float64
	// MaxVirtual caps the virtual reducers one partition may expand into
	// (0 selects cost.DefaultMaxVirtual).
	MaxVirtual int
	// AutoPartitions records that Partitions was chosen by
	// cost.AdvisePartitions (the -partitions auto CLI mode); it only
	// annotates the reported plan.
	AutoPartitions bool
	// Window, when set, restricts the run to the closed time window
	// [Window[0], Window[1]]: the anchor relation, relation 0, is filtered
	// at map-feed time to tuples whose first interval attribute intersects
	// the window, so the output is exactly the join rows anchored in the
	// window — including rows whose anchor straddles a window boundary
	// (the tuple is fed whole; callers merging adjacent windows dedup).
	// It is the windowed-query oracle over whole relations; the cache
	// service feeds pre-sliced relations instead.
	Window *[2]interval.Point
}

// scratchSeq disambiguates the scratch namespaces of concurrent runs that
// share one store.
var scratchSeq atomic.Int64

func (o Options) withDefaults(name string) Options {
	if o.Partitions <= 0 {
		o.Partitions = 16
	}
	if o.PartitionsPerDim <= 0 {
		o.PartitionsPerDim = 6
	}
	if o.Scratch == "" {
		o.Scratch = name + "-" + strconv.FormatInt(scratchSeq.Add(1), 10)
	}
	return o
}

// Context is everything an algorithm needs: the engine, the validated
// query, and the relations bound positionally to the query's relation list.
type Context struct {
	Engine *mr.Engine
	Query  *query.Query
	Rels   []*relation.Relation
	Opts   Options
}

// NewContext validates and assembles a run context. Relations are matched to
// the query's relation list by name.
func NewContext(engine *mr.Engine, q *query.Query, rels []*relation.Relation, opts Options) (*Context, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	bound := make([]*relation.Relation, len(q.Relations))
	for _, r := range rels {
		i := q.RelIndex(r.Schema.Name)
		if i < 0 {
			return nil, fmt.Errorf("core: relation %s does not appear in the query", r.Schema.Name)
		}
		if bound[i] != nil {
			return nil, fmt.Errorf("core: relation %s bound twice", r.Schema.Name)
		}
		if r.Schema.Arity() < q.Relations[i].Arity() {
			return nil, fmt.Errorf("core: relation %s has arity %d, query needs %d",
				r.Schema.Name, r.Schema.Arity(), q.Relations[i].Arity())
		}
		if err := r.Validate(); err != nil {
			return nil, err
		}
		bound[i] = r
	}
	for i, r := range bound {
		if r == nil {
			return nil, fmt.Errorf("core: no relation bound for %s", q.Relations[i].Name)
		}
	}
	return &Context{Engine: engine, Query: q, Rels: bound, Opts: opts}, nil
}

// inputFile is where relation ri is staged on the store: under the run's
// scratch namespace when one is set, so removing the namespace removes the
// staged copy too.
func (c *Context) inputFile(ri int) string {
	name := "input/" + c.Query.Relations[ri].Name
	if c.Opts.Scratch != "" {
		return c.Opts.Scratch + "/" + name
	}
	return name
}

// relInput builds the map input for relation ri carrying map tag. When the
// run is windowed (Options.Window) and ri is the anchor relation 0, the input
// gets a feed-time filter that drops tuples whose anchor attribute misses
// the window. Every driver site that maps over a relation's staged file
// goes through here so the window semantics hold for all algorithms.
func (c *Context) relInput(ri, tag int) mr.Input {
	in := mr.Input{File: c.inputFile(ri), Tag: tag}
	if c.Opts.Window != nil && ri == 0 {
		in.Where = windowFilter(c.Opts.Window[0], c.Opts.Window[1])
	}
	return in
}

// windowFilter returns a record predicate keeping tuples whose first
// interval attribute intersects the closed window [lo, hi]. Malformed
// records pass through: the map side owns format errors and reports them
// with its usual context.
func windowFilter(lo, hi interval.Point) func(string) bool {
	return func(rec string) bool {
		iv, err := relation.FirstAttr(rec)
		return err != nil || (iv.Start <= hi && iv.End >= lo)
	}
}

// Stage writes every relation to the store in the engine's record format.
// It is idempotent per store.
func (c *Context) Stage() error {
	for ri, r := range c.Rels {
		w, err := c.Engine.Store().Create(c.inputFile(ri))
		if err != nil {
			return err
		}
		for _, t := range r.Tuples {
			if err := w.Write(relation.EncodeRecord(relation.Header{}, t)); err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// timeRange returns the partitioning range: the explicit option if set,
// otherwise the bounds of all staged relations (padded by one so every end
// point falls strictly inside).
func (c *Context) timeRange() (t0, tn interval.Point, err error) {
	if c.Opts.Range != nil {
		return c.Opts.Range[0], c.Opts.Range[1], nil
	}
	t0, tn, ok := relation.Bounds(c.Rels...)
	if !ok {
		return 0, 1, nil // all-empty inputs: any non-empty range works
	}
	return t0, tn, nil
}

// sampleBudget bounds the driver-side start-point sample used by equi-depth
// partitioning.
const sampleBudget = 8192

// sampleStarts stride-samples the start points of every relation's first
// attribute (the single-attribute algorithms' join column).
func (c *Context) sampleStarts() []interval.Point {
	total := 0
	for _, r := range c.Rels {
		total += r.Len()
	}
	if total == 0 {
		return nil
	}
	stride := total/sampleBudget + 1
	var sample []interval.Point
	i := 0
	for _, r := range c.Rels {
		for _, t := range r.Tuples {
			if i%stride == 0 {
				sample = append(sample, t.Attrs[0].Start)
			}
			i++
		}
	}
	return sample
}

// makePartitioning builds the shared 1-D partitioning of n partitions:
// uniform-width by default, quantile-based under Options.EquiDepth — or
// under Options.Adaptive when the data's histogram recommends it (see
// boundaries in adaptive.go). The result may hold fewer than n partitions
// when quantiles collapse.
func (c *Context) makePartitioning(n int) (interval.Partitioning, error) {
	part, _, err := c.boundaries(n)
	return part, err
}

// jobMeta annotates one cycle's job for observability: traces and profiles
// attribute its spans to (algorithm, 1-based cycle, predicate family).
func (c *Context) jobMeta(alg string, cycle int) mr.JobMeta {
	return mr.JobMeta{Algorithm: alg, Cycle: cycle, Family: c.Query.Classify().String()}
}

// OutputTuple is one join result: the tuple id per relation, in query
// relation order.
type OutputTuple []int64

// Key renders the ids comma-separated, the form ijoin prints.
func (o OutputTuple) Key() string {
	b := make([]byte, 0, 8*len(o))
	for i, id := range o {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, id, 10)
	}
	return string(b)
}

// Result is what an algorithm run produces.
type Result struct {
	// Algorithm is the algorithm's name.
	Algorithm string
	// Tuples is the decoded join output.
	Tuples []OutputTuple
	// Metrics aggregates all MR cycles of the run.
	Metrics *mr.Metrics
	// PerCycle holds the metrics of each individual cycle.
	PerCycle []*mr.Metrics
	// ReplicatedIntervals counts the intervals selected for replication
	// (the paper's Table 1 "# Intervals Replicated" column). Zero for
	// algorithms that do not replicate.
	ReplicatedIntervals int64
	// PrunedIntervals maps relation index -> number of tuples PASM proved
	// cannot appear in any output and dropped before the join cycle
	// (the paper's Table 3 "% intervals pruned" column).
	PrunedIntervals map[int]int64
}

// SortTuples orders the output canonically for comparison and display.
func (r *Result) SortTuples() { slices.SortFunc(r.Tuples, compareRows) }

// compareRows orders output rows lexicographically by id.
func compareRows(a, b OutputTuple) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if c := cmp.Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// DiffRows compares two row sets: it sorts copies of both, reports a
// duplicate in got as equal neighbours, and otherwise names the first row
// missing from or spurious in got. A nil error means the sets are equal.
func DiffRows(got, want []OutputTuple) error {
	g, w := slices.Clone(got), slices.Clone(want)
	slices.SortFunc(g, compareRows)
	slices.SortFunc(w, compareRows)
	for i := 1; i < len(g); i++ {
		if compareRows(g[i-1], g[i]) == 0 {
			return fmt.Errorf("duplicate output tuple %v", g[i])
		}
	}
	if slices.EqualFunc(g, w, slices.Equal) {
		return nil
	}
	for i := 0; ; i++ {
		switch {
		case i == len(w) || (i < len(g) && compareRows(g[i], w[i]) < 0):
			return fmt.Errorf("spurious output tuple %v (%d tuples, want %d)", g[i], len(g), len(w))
		case i == len(g) || compareRows(g[i], w[i]) > 0:
			return fmt.Errorf("missing output tuple %v (%d tuples, want %d)", w[i], len(g), len(w))
		}
	}
}

// Algorithm is a runnable join algorithm.
type Algorithm interface {
	// Name identifies the algorithm ("rccis", "all-matrix", ...).
	Name() string
	// Run executes the algorithm and returns its result.
	Run(ctx *Context) (*Result, error)
}

// runMarkedChain executes a mark cycle followed by downstream cycles. In
// the default pipelined mode the marking output streams straight into the
// next cycle's map feed and the replicate-flag count is computed by a tap
// on the fly; under Options.Materialize the chain runs sequentially and the
// count is read back from the marked file, exactly as a Hadoop driver would
// re-scan the HDFS intermediate.
func runMarkedChain(ctx *Context, opts Options, marked string, markJob mr.Job,
	rest ...mr.Stage) ([]*mr.Metrics, *mr.Metrics, int64, error) {

	if opts.Materialize {
		jobs := make([]mr.Job, 0, len(rest)+1)
		jobs = append(jobs, markJob)
		for _, s := range rest {
			jobs = append(jobs, s.Job)
		}
		perCycle, agg, err := ctx.Engine.RunChain(jobs...)
		if err != nil {
			return nil, nil, 0, err
		}
		replicated, err := countFlagged(ctx, marked)
		if err != nil {
			return nil, nil, 0, err
		}
		return perCycle, agg, replicated, nil
	}
	var replicated int64
	stages := append([]mr.Stage{{Job: markJob, Tap: flaggedTap(&replicated)}}, rest...)
	perCycle, agg, err := ctx.Engine.RunPipeline(stages...)
	if err != nil {
		return nil, nil, 0, err
	}
	return perCycle, agg, replicated, nil
}

// flaggedTap counts records with a set flag streaming out of a mark cycle —
// the pipelined stand-in for countFlagged, which would force the marked
// intermediate onto the store.
func flaggedTap(n *int64) func(string) {
	return func(rec string) {
		if h, err := relation.DecodeHeader(rec); err == nil && h.Flagged() {
			*n++
		}
	}
}

// countFlagged counts the records of a marking output with a set flag —
// the paper's "# Intervals Replicated" statistic.
func countFlagged(ctx *Context, file string) (int64, error) {
	var n int64
	err := forEachRecord(ctx, file, func(rec string) error {
		h, err := relation.DecodeHeader(rec)
		if h.Flagged() {
			n++
		}
		return err
	})
	return n, err
}

// readOutput decodes the final job output file into Result.Tuples.
func readOutput(ctx *Context, file string, res *Result) error {
	return forEachRecord(ctx, file, func(rec string) error {
		ids, err := relation.DecodeRow(rec)
		res.Tuples = append(res.Tuples, ids)
		return err
	})
}

// forEachRecord calls fn on every record of a store file, stopping at the
// first error.
func forEachRecord(ctx *Context, file string, fn func(rec string) error) error {
	it, err := ctx.Engine.Store().Open(file)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		rec, ok, err := it.Next()
		if err != nil || !ok {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// encodeTagged is the record of tuple t tagged with relation rel.
func encodeTagged(rel int, t relation.Tuple) string {
	return relation.EncodeRecord(relation.Header{Rel: rel}, t)
}

// encodeFlagged is the record of tuple t carrying one replicate flag for
// its (rel, attr) vertex — a mark cycle's output.
func encodeFlagged(rel, attr int, replicate bool, t relation.Tuple) string {
	return relation.EncodeRecord(relation.Header{Rel: rel, Attr: attr, Flags: []bool{replicate}}, t)
}

// decodeFlagged decodes encodeFlagged's record.
func decodeFlagged(s string) (rel int, replicate bool, t relation.Tuple, err error) {
	h, t, err := relation.DecodeRecord(s)
	return h.Rel, h.Flagged(), t, err
}
