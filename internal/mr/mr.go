// Package mr is a from-scratch MapReduce engine that plays the role Hadoop
// plays in the paper. It executes jobs — map over tagged input files,
// shuffle by integer key, reduce per key — on a pool of worker goroutines,
// and measures exactly the quantities the paper's evaluation reasons about:
// the number of intermediate key-value pairs (map/reduce communication
// cost), per-reducer load, and a simulated makespan that models one reduce
// node per key as on a real cluster.
//
// Keys are int64 reducer ids: the paper's partition-intervals and grid cells
// map directly onto them. Values are byte-string records (the algorithms use
// the binary format of internal/relation/record.go), so every intermediate
// result can spill to the dfs.Store between cycles just as Hadoop
// materialises cycle boundaries on HDFS.
//
// Three Hadoop behaviours are modelled beyond the basic phases: map tasks
// are record batches that are retried on transient failures (as Hadoop
// re-schedules failed task attempts), an optional combiner folds each map
// task's output before the shuffle, and an external sort-merge shuffle
// spills key-sorted runs to the store when the in-memory budget is
// exceeded, so jobs larger than RAM still run.
package mr

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"intervaljoin/internal/dfs"
	"intervaljoin/internal/obs"
)

// Emitter publishes intermediate key-value pairs from a map function. Keys
// are the ids of the reduce tasks that will receive the value; they must be
// non-negative.
type Emitter struct {
	buf    *[]emission
	expand bool
}

// Emit publishes one intermediate key-value pair.
func (e Emitter) Emit(key int64, value string) {
	*e.buf = append(*e.buf, emission{lo: key, hi: key, value: value})
}

// EmitRange publishes value to every reduce key in [lo, hi] — the broadcast
// every replication-based interval-join strategy performs over a contiguous
// run of partition ids. The shuffle stores the value once and expands the
// range lazily at the consuming reduce side, so the physical shuffle cost is
// one record instead of hi-lo+1 copies, while the logical pair metrics still
// count the full span. lo must be non-negative; an empty range (hi < lo)
// emits nothing. Jobs with a combiner, and engines configured with
// ExpandRangeEmits, expand the range into per-key pairs at emit time
// instead.
func (e Emitter) EmitRange(lo, hi int64, value string) {
	if hi < lo {
		return
	}
	if e.expand || lo < 0 {
		for k := lo; k <= hi; k++ {
			*e.buf = append(*e.buf, emission{lo: k, hi: k, value: value})
		}
		return
	}
	*e.buf = append(*e.buf, emission{lo: lo, hi: hi, value: value})
}

// MapFunc transforms one input record into intermediate pairs. tag
// identifies which job input the record came from (the algorithms use it for
// the relation index), so one job can map several relations with one
// function, as Hadoop does with multiple input paths.
type MapFunc func(tag int, record string, emit Emitter) error

// ReduceFunc processes all values received by one reduce task. write appends
// a record to the job output. The values slice is scratch the engine reuses
// across tasks; implementations must not retain it past the call.
type ReduceFunc func(key int64, values []string, write func(record string) error) error

// CombineFunc folds one map task's values for a key before the shuffle
// (Hadoop's combiner). It must be semantically idempotent with the reducer:
// reducing combined values must equal reducing the originals.
type CombineFunc func(key int64, values []string) []string

// Phase identifies which phase a task attempt belongs to, for failure
// injection.
type Phase string

// The two task phases.
const (
	PhaseMap    Phase = "map"
	PhaseReduce Phase = "reduce"
)

// ErrTransient marks a task failure as retryable: the engine re-runs the
// attempt (up to Config.MaxTaskAttempts), discarding the failed attempt's
// partial output, exactly as Hadoop re-schedules failed task attempts.
// Wrap or return it from a map/reduce function (or a failure injector) to
// exercise the retry path.
var ErrTransient = errors.New("mr: transient task failure")

// Input is one input of a job, tagged for the map function. A File ending
// in "/" is a directory input: every store file under the prefix is read,
// in sorted name order — how Hadoop consumes a previous job's part files.
type Input struct {
	File string
	Tag  int
	// Where optionally filters records at feed time: only records for
	// which it returns true reach the map tasks; the rest are dropped
	// before batching and counted in Metrics.FilteredRecords. Windowed
	// runs over whole relations (core.Options.Window) use it to keep only
	// the anchor tuples intersecting the window. Nil feeds every record. The
	// function must be safe for concurrent calls (one reader goroutine per
	// input file).
	Where func(record string) bool
}

// expand resolves a directory input to its member files.
func (in Input) expand(store dfs.Store) ([]string, error) {
	if !strings.HasSuffix(in.File, "/") {
		return []string{in.File}, nil
	}
	files, err := store.List(in.File)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("mr: directory input %s is empty", in.File)
	}
	return files, nil
}

// Job describes one map-reduce cycle.
type Job struct {
	// Name labels the job in metrics and errors.
	Name string
	// Inputs are the files to map over.
	Inputs []Input
	// Map is the map function. Required.
	Map MapFunc
	// Reduce is the reduce function. Required.
	Reduce ReduceFunc
	// Combine optionally folds each map task's output before the shuffle.
	Combine CombineFunc
	// Output names where the reduce output is written. Empty discards
	// output (metric-only runs). A name ending in "/" writes one part
	// file per reduce task ("<output>part-r-00000", ... in key order), as
	// Hadoop does; otherwise a single file is written.
	Output string
	// SortValues sorts each reduce task's value list before reduction,
	// making runs deterministic (Hadoop guarantees key order; this
	// additionally pins value order the way a secondary sort would).
	SortValues bool
	// Resplit, when set alongside Config.ResplitPairThreshold, lets the
	// engine re-shard an oversized reduce task's value list into sub-tasks
	// mid-job (before dispatch). The hook must return shards such that
	// reducing each shard independently and concatenating the outputs in
	// shard order produces exactly the records of reducing the whole list
	// (values may be replicated across shards to keep that true — the
	// drivers use a cell cover over the join's input streams). Returning
	// nil or a single shard declines the split. Each shard runs under the
	// task's original key with full retry semantics.
	Resplit func(key int64, values []string, parts int) [][]string
	// Meta annotates the job for observability: the tracer's cycle spans
	// and the optional pprof labels carry it, so traces and CPU profiles
	// attribute time to (algorithm, cycle, predicate family) rather than
	// to anonymous jobs. Optional; the zero value adds nothing.
	Meta JobMeta
}

// JobMeta is a job's observability annotation, set by the algorithm
// drivers.
type JobMeta struct {
	// Algorithm is the driver's name ("rccis", "all-matrix", ...).
	Algorithm string
	// Cycle is the job's 1-based position in the driver's MR chain.
	Cycle int
	// Family is the query's predicate family ("colocation", "sequence",
	// "hybrid", "general").
	Family string
}

// traceArgs renders the non-empty meta fields as span annotations.
func (jm JobMeta) traceArgs() []obs.Arg {
	args := make([]obs.Arg, 0, 3)
	if jm.Algorithm != "" {
		args = append(args, obs.Arg{Key: "algorithm", Val: jm.Algorithm})
	}
	if jm.Cycle > 0 {
		args = append(args, obs.Arg{Key: "cycle", Val: strconv.Itoa(jm.Cycle)})
	}
	if jm.Family != "" {
		args = append(args, obs.Arg{Key: "family", Val: jm.Family})
	}
	return args
}

// Config configures an Engine.
type Config struct {
	// Store holds inputs, outputs and cycle intermediates. Required.
	Store dfs.Store
	// Workers is the number of concurrent map (and reduce) tasks.
	// Defaults to GOMAXPROCS.
	Workers int
	// SpillPairThreshold bounds the intermediate pairs each map worker
	// buffers in memory; beyond it the worker spills a key-sorted run to
	// the store and the reduce phase streams a merge of the runs.
	// 0 disables spilling (fully in-memory shuffle).
	SpillPairThreshold int
	// MaxTaskAttempts bounds attempts per task (map batch or reduce key).
	// Values below 1 mean 1 (no retry). Hadoop's default is 4.
	MaxTaskAttempts int
	// FailureInjector, when non-nil, runs before every task attempt and
	// may return an error (typically wrapping ErrTransient) to simulate
	// task failures. Used by the failure-injection tests.
	FailureInjector func(phase Phase, task, attempt int) error
	// MaterializeBoundaries forces RunPipeline to write every streamed
	// cycle boundary to the store as well — Hadoop-parity behaviour for
	// debugging and post-mortem inspection of intermediates.
	MaterializeBoundaries bool
	// ExpandRangeEmits makes EmitRange materialise one pair per covered key
	// at emit time instead of shipping a single range record — the legacy
	// per-partition shuffle, kept for ablations and equivalence tests.
	ExpandRangeEmits bool
	// ResplitPairThreshold arms the mid-job re-split: a reduce task whose
	// shuffled value count reaches the threshold is re-sharded through
	// Job.Resplit (when the job provides the hook) and its shards reduced
	// concurrently on spare goroutines. 0 disables re-splitting.
	ResplitPairThreshold int
	// Tracer, when non-nil, records structured execution spans (per map
	// and reduce task, spill, shuffle merge, cycle and chain) plus
	// counters and histograms into internal/obs. A nil tracer disables
	// all recording at the cost of a nil check per instrumentation site.
	Tracer *obs.Tracer
}

// Engine executes jobs.
type Engine struct {
	store        dfs.Store
	workers      int
	spill        int
	attempts     int
	inject       func(phase Phase, task, attempt int) error
	materialize  bool
	expandRanges bool
	resplit      int
	tracer       *obs.Tracer
}

// NewEngine returns an engine over the given store.
func NewEngine(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	a := cfg.MaxTaskAttempts
	if a < 1 {
		a = 1
	}
	return &Engine{
		store:        cfg.Store,
		workers:      w,
		spill:        cfg.SpillPairThreshold,
		attempts:     a,
		inject:       cfg.FailureInjector,
		materialize:  cfg.MaterializeBoundaries,
		expandRanges: cfg.ExpandRangeEmits,
		resplit:      cfg.ResplitPairThreshold,
		tracer:       cfg.Tracer,
	}
}

// Tracer returns the engine's tracer (nil when tracing is disabled).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// WithTracer returns a derived engine identical to e but recording into
// tr (which may be nil to disable tracing). The engine carries only
// configuration, so the copy shares the store and runs interchangeably
// with the original — this is how a service attaches a fresh per-query
// tracer to a sampled request without touching the shared engine.
func (e *Engine) WithTracer(tr *obs.Tracer) *Engine {
	d := *e
	d.tracer = tr
	return &d
}

// Store returns the engine's file store.
func (e *Engine) Store() dfs.Store { return e.store }

// Run executes one job and returns its metrics.
func (e *Engine) Run(job Job) (*Metrics, error) {
	mark := e.tracer.Now()
	m, err := e.runJob(job, nil, nil, true)
	if m != nil {
		e.fillTrueWalls(m, mark)
	}
	return m, err
}

// runJob executes one job. stream, when non-nil, feeds extra map input
// records alongside the job's file inputs (the pipelined cycle boundary);
// snk, when non-nil, observes every reduce task's committed output; writeOut
// false suppresses writing Job.Output (the records only travel through snk).
func (e *Engine) runJob(job Job, stream <-chan []taggedRecord, snk *sink, writeOut bool) (*Metrics, error) {
	if job.Map == nil || job.Reduce == nil {
		return nil, fmt.Errorf("mr: job %s: Map and Reduce are required", job.Name)
	}
	m := newMetrics(job.Name)
	jobLane := e.tracer.Acquire()
	defer e.tracer.Release(jobLane)
	jobStart := jobLane.Begin()
	start := time.Now()

	shuffle, err := e.mapPhase(job, m, stream, jobLane)
	if err != nil {
		return nil, err
	}
	if err := e.reducePhase(job, shuffle, m, snk, writeOut, jobLane); err != nil {
		return nil, err
	}
	m.CleanupFailures += shuffle.cleanup(e.store)
	m.TotalWall = time.Since(start)
	if jobLane != nil {
		jobLane.End(obs.CatCycle, "cycle:"+job.Name, jobStart, job.Meta.traceArgs()...)
	}
	return m, nil
}

// RunChain executes jobs sequentially (each typically consuming the previous
// job's output file) and returns the per-job metrics plus their aggregate.
func (e *Engine) RunChain(jobs ...Job) ([]*Metrics, *Metrics, error) {
	var all []*Metrics
	agg := newMetrics("chain")
	agg.Cycles = 0
	mark := e.tracer.Now()
	chainLane := e.tracer.Acquire()
	chainStart := chainLane.Begin()
	for i, job := range jobs {
		if i > 0 {
			// Every boundary in a sequential chain is a store barrier.
			chainLane.Event(obs.CatBarrier, "barrier:"+job.Name)
		}
		m, err := e.runJob(job, nil, nil, true)
		if err != nil {
			e.tracer.Release(chainLane)
			return all, agg, err
		}
		all = append(all, m)
		agg.Merge(m)
	}
	chainLane.End(obs.CatChain, "chain", chainStart)
	e.tracer.Release(chainLane)
	e.fillTrueWalls(agg, mark)
	return all, agg, nil
}

// fillTrueWalls sets m's tracer-measured per-phase wall clocks from the
// spans recorded since mark. No-op without a tracer; see Metrics.TrueWalls.
func (e *Engine) fillTrueWalls(m *Metrics, mark time.Duration) {
	if !e.tracer.Enabled() {
		return
	}
	walls := e.tracer.Snapshot().PhaseWalls(mark)
	m.TrueWalls = PhaseWallClock{
		Feed:    walls[obs.CatFeed],
		Map:     walls[obs.CatMap],
		Combine: walls[obs.CatCombine],
		Spill:   walls[obs.CatSpill],
		Merge:   walls[obs.CatMerge],
		Reduce:  walls[obs.CatReduce],
		Output:  walls[obs.CatOutput],
	}
}

// taggedRecord is one unit of map input.
type taggedRecord struct {
	tag    int
	record string
}

// mapBatchSize is the number of records per map task (the retry unit).
const mapBatchSize = 256

// shuffleState carries the map output to the reduce phase: either fully
// in-memory groups partitioned into key shards, or spilled sorted runs plus
// in-memory leftovers.
type shuffleState struct {
	shards   []map[int64][]string // in-memory mode, shards[shardOf(k)] holds k
	runFiles []string             // spill mode
	leftover [][]emission         // spill mode: per-worker lo-sorted tails
}

// shardOf partitions reduce keys across n shards. Map workers bucket their
// local output by shard, so the post-map merge parallelises with one merge
// task per shard and no locking.
func shardOf(key int64, n int) int { return int(uint64(key) % uint64(n)) }

// rangeShardStart returns the smallest key >= lo owned by shard p, so a
// range expansion visits only the keys of one shard. lo is non-negative
// (EmitRange expands negative ranges eagerly).
func rangeShardStart(lo int64, p, n int) int64 {
	return lo + ((int64(p)-lo)%int64(n)+int64(n))%int64(n)
}

// group returns the value list shuffled to key.
func (s *shuffleState) group(key int64) []string {
	return s.shards[shardOf(key, len(s.shards))][key]
}

func (s *shuffleState) spilled() bool { return s.runFiles != nil || s.leftover != nil }

// cleanup removes the job's scratch spill files and returns how many
// removals failed. Failures do not affect the job's result — the files are
// scratch — but the caller records them in Metrics so leaked scratch space
// is visible.
func (s *shuffleState) cleanup(store dfs.Store) int {
	failed := 0
	for _, f := range s.runFiles {
		if err := store.Remove(f); err != nil {
			failed++
		}
	}
	return failed
}

// batchPool recycles map-input batches: the feed hands each filled batch to
// a map worker, which returns it after the task completes.
var batchPool = sync.Pool{
	New: func() any { return make([]taggedRecord, 0, mapBatchSize) },
}

// valuesPool recycles the per-task value slices the streaming reduce path
// hands to reduce tasks (mirroring the sweep kernel's pooled scratch).
var valuesPool = sync.Pool{
	New: func() any { return new([]string) },
}

// recycleValues clears a pooled value slice's string references and returns
// it to the pool.
func recycleValues(vs *[]string) {
	clear(*vs)
	*vs = (*vs)[:0]
	valuesPool.Put(vs)
}

// feedFile is one resolved input file with its map tag and optional
// feed-time record filter.
type feedFile struct {
	name  string
	tag   int
	where func(string) bool
}

func (e *Engine) mapPhase(job Job, m *Metrics, stream <-chan []taggedRecord, jobLane *obs.Lane) (*shuffleState, error) {
	mapStart := time.Now()
	// Resolve every input to its file list up front so the feed can read
	// files concurrently.
	var files []feedFile
	for _, in := range job.Inputs {
		fs, err := in.expand(e.store)
		if err != nil {
			return nil, fmt.Errorf("mr: job %s: %w", job.Name, err)
		}
		for _, f := range fs {
			files = append(files, feedFile{name: f, tag: in.Tag, where: in.Where})
		}
	}

	nshards := e.workers
	work := make(chan []taggedRecord, 2*e.workers)
	errc := make(chan error, 2*e.workers)

	type workerState struct {
		local      []map[int64][]string // in-memory mode, point pairs bucketed by key shard
		ranges     []emission           // in-memory mode, buffered range emissions
		buf        []emission           // spill mode buffer
		runs       []string
		pairs      int64 // logical: one per covered key
		bytes      int64 // logical: value bytes per covered key
		physPairs  int64 // physical: one per emission record
		physBytes  int64 // physical: what the shuffle actually holds
		spilled    int64 // logical pairs inside spilled runs
		retries    int64
		combineIn  int64
		combineOut int64
		runSeq     int
	}
	states := make([]*workerState, e.workers)
	var taskSeq sync.Mutex
	nextTask := 0
	takeTask := func() int {
		taskSeq.Lock()
		defer taskSeq.Unlock()
		t := nextTask
		nextTask++
		return t
	}

	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := e.tracer.Acquire()
			defer e.tracer.Release(lane)
			var mapSpan, combineSpan, spillSpan string
			if lane != nil {
				mapSpan = "map:" + job.Name
				combineSpan = "combine:" + job.Name
				spillSpan = "spill:" + job.Name
			}
			st := &workerState{}
			if e.spill == 0 {
				st.local = make([]map[int64][]string, nshards)
				for p := range st.local {
					st.local[p] = make(map[int64][]string)
				}
			}
			states[w] = st
			var attemptBuf []emission
			for batch := range work {
				task := takeTask()
				taskStart := lane.Begin()
				var err error
				for attempt := 1; ; attempt++ {
					attemptBuf = attemptBuf[:0]
					err = e.runMapAttempt(job, batch, task, attempt, &attemptBuf)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrTransient) || attempt >= e.attempts {
						errc <- fmt.Errorf("mr: job %s: map task %d: %w", job.Name, task, err)
						for range work {
						}
						return
					}
					st.retries++
					if lane != nil {
						lane.Event(obs.CatMap, "retry:"+job.Name)
						lane.Count("map_retries", 1)
					}
				}
				batchPool.Put(batch[:0])
				// Fold the attempt's pairs through the combiner, then into
				// the worker shuffle.
				pairs := attemptBuf
				if job.Combine != nil {
					combineStart := lane.Begin()
					pairs, st.combineIn, st.combineOut = combinePairs(job.Combine, pairs, st.combineIn, st.combineOut)
					lane.End(obs.CatCombine, combineSpan, combineStart)
				}
				for _, p := range pairs {
					n := p.span()
					st.pairs += n
					st.bytes += n * (int64(len(p.value)) + 8)
					st.physPairs++
					st.physBytes += p.physBytes()
					if lane != nil && p.isRange() {
						lane.Observe("range_emit_width", n)
					}
				}
				if e.spill == 0 {
					for _, p := range pairs {
						if p.isRange() {
							st.ranges = append(st.ranges, p)
							continue
						}
						shard := st.local[shardOf(p.lo, nshards)]
						shard[p.lo] = append(shard[p.lo], p.value)
					}
					lane.End(obs.CatMap, mapSpan, taskStart)
					continue
				}
				st.buf = append(st.buf, pairs...)
				if len(st.buf) >= e.spill {
					name := job.Name + "/.spill/w" + strconv.Itoa(w) + "-r" + strconv.Itoa(st.runSeq)
					st.runSeq++
					var logical int64
					for _, p := range st.buf {
						logical += p.span()
					}
					spillStart := lane.Begin()
					if err := spillRun(e.store, name, st.buf); err != nil {
						errc <- fmt.Errorf("mr: job %s: %w", job.Name, err)
						for range work {
						}
						return
					}
					if lane != nil {
						lane.End(obs.CatSpill, spillSpan, spillStart)
						lane.Count("spill_records", int64(len(st.buf)))
						lane.Count("spill_runs", 1)
					}
					st.spilled += logical
					st.runs = append(st.runs, name)
					st.buf = st.buf[:0]
				}
				lane.End(obs.CatMap, mapSpan, taskStart)
			}
		}(w)
	}

	// Feed record batches with one reader per file (bounded by the worker
	// count), so multi-file and multi-input jobs are not throttled by a
	// single reader goroutine.
	var records, filtered atomic.Int64
	feedErrc := make(chan error, len(files))
	filec := make(chan feedFile)
	readers := e.workers
	if readers > len(files) {
		readers = len(files)
	}
	var feedWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		feedWG.Add(1)
		go func() {
			defer feedWG.Done()
			lane := e.tracer.Acquire()
			defer e.tracer.Release(lane)
			for f := range filec {
				fStart := lane.Begin()
				if err := e.feedFile(job, f, work, &records, &filtered); err != nil {
					feedErrc <- err
					// Keep draining so the dispatcher never blocks.
				}
				if lane != nil {
					lane.End(obs.CatFeed, "feed:"+f.name, fStart)
				}
			}
		}()
	}
	// A streamed boundary feeds upstream reduce batches straight into the
	// same work queue the file readers fill: upstream batches are already
	// the retry unit, so a failed downstream map attempt re-runs from the
	// buffered batch without touching the store.
	if stream != nil {
		feedWG.Add(1)
		go func() {
			defer feedWG.Done()
			for batch := range stream {
				records.Add(int64(len(batch)))
				work <- batch
			}
		}()
	}
	for _, f := range files {
		filec <- f
	}
	close(filec)
	feedWG.Wait()
	m.FeedWall = time.Since(mapStart)
	close(work)
	wg.Wait()
	close(errc)
	close(feedErrc)
	if err := <-feedErrc; err != nil {
		return nil, err
	}
	if err := <-errc; err != nil {
		return nil, err
	}

	m.MapInputRecords = records.Load()
	m.FilteredRecords = filtered.Load()
	m.MapWall = time.Since(mapStart)

	shuffle := &shuffleState{}
	for _, st := range states {
		if st == nil {
			continue
		}
		m.IntermediatePairs += st.pairs
		m.IntermediateBytes += st.bytes
		m.PhysicalPairs += st.physPairs
		m.PhysicalBytes += st.physBytes
		m.SpilledPairs += st.spilled
		m.TaskRetries += st.retries
		m.CombineInputPairs += st.combineIn
		m.CombineOutputPairs += st.combineOut
		if e.spill == 0 {
			continue
		}
		shuffle.runFiles = append(shuffle.runFiles, st.runs...)
		m.SpillRuns += len(st.runs)
		if len(st.buf) > 0 {
			slices.SortFunc(st.buf, func(a, b emission) int {
				if c := cmp.Compare(a.lo, b.lo); c != 0 {
					return c
				}
				return cmp.Compare(a.hi, b.hi)
			})
			shuffle.leftover = append(shuffle.leftover, st.buf)
		}
	}
	if e.spill > 0 {
		return shuffle, nil
	}

	// Merge the worker-local buckets into per-shard groups, one merge task
	// per shard on its own goroutine — no shard is touched by two tasks, so
	// the merge needs no locks. Range emissions expand here: the merge
	// appends one shared string reference per covered key, stepping through
	// the range with the shard stride so the per-shard work is proportional
	// to the keys the shard owns. A first counting pass sizes every value
	// list exactly, so one contiguous arena backs the whole shard instead of
	// one growing allocation per key.
	shuffle.shards = make([]map[int64][]string, nshards)
	mergeStart := jobLane.Begin()
	var mergeWG sync.WaitGroup
	for p := 0; p < nshards; p++ {
		mergeWG.Add(1)
		go func(p int) {
			defer mergeWG.Done()
			counts := make(map[int64]int)
			total := 0
			for _, st := range states {
				if st == nil {
					continue
				}
				for k, vs := range st.local[p] {
					counts[k] += len(vs)
					total += len(vs)
				}
				for _, r := range st.ranges {
					for k := rangeShardStart(r.lo, p, nshards); k <= r.hi; k += int64(nshards) {
						counts[k]++
						total++
					}
				}
			}
			shard := make(map[int64][]string, len(counts))
			arena := make([]string, total)
			off := 0
			for k, n := range counts {
				shard[k] = arena[off : off : off+n]
				off += n
			}
			for _, st := range states {
				if st == nil {
					continue
				}
				for k, vs := range st.local[p] {
					shard[k] = append(shard[k], vs...)
				}
				for _, r := range st.ranges {
					for k := rangeShardStart(r.lo, p, nshards); k <= r.hi; k += int64(nshards) {
						shard[k] = append(shard[k], r.value)
					}
				}
			}
			shuffle.shards[p] = shard
		}(p)
	}
	mergeWG.Wait()
	if jobLane != nil {
		jobLane.End(obs.CatMerge, "merge:"+job.Name, mergeStart)
	}
	for _, shard := range shuffle.shards {
		m.DistinctKeys += len(shard)
		for k, vs := range shard {
			m.ReducerPairs[k] = int64(len(vs))
		}
	}
	return shuffle, nil
}

// feedFile streams one input file into map batches, applying the input's
// feed-time filter (if any) before batching.
func (e *Engine) feedFile(job Job, f feedFile, work chan<- []taggedRecord, records, filtered *atomic.Int64) error {
	it, err := e.store.Open(f.name)
	if err != nil {
		return fmt.Errorf("mr: job %s: %w", job.Name, err)
	}
	defer it.Close()
	batch := batchPool.Get().([]taggedRecord)
	n, dropped := int64(0), int64(0)
	for {
		rec, ok, err := it.Next()
		if err != nil {
			batchPool.Put(batch[:0])
			return fmt.Errorf("mr: job %s: read %s: %w", job.Name, f.name, err)
		}
		if !ok {
			break
		}
		if f.where != nil && !f.where(rec) {
			dropped++
			continue
		}
		n++
		batch = append(batch, taggedRecord{tag: f.tag, record: rec})
		if len(batch) == mapBatchSize {
			work <- batch
			batch = batchPool.Get().([]taggedRecord)
		}
	}
	records.Add(n)
	filtered.Add(dropped)
	if len(batch) > 0 {
		work <- batch
	} else {
		batchPool.Put(batch[:0])
	}
	return nil
}

// runMapAttempt executes one map task attempt over a record batch,
// buffering its emissions. Jobs with a combiner expand range emissions into
// per-key pairs at emit time: the combiner's fold is defined per key, so the
// shared-value representation cannot survive it.
func (e *Engine) runMapAttempt(job Job, batch []taggedRecord, task, attempt int, buf *[]emission) error {
	if e.inject != nil {
		if err := e.inject(PhaseMap, task, attempt); err != nil {
			return err
		}
	}
	emit := Emitter{buf: buf, expand: e.expandRanges || job.Combine != nil}
	for _, tr := range batch {
		if err := job.Map(tr.tag, tr.record, emit); err != nil {
			return err
		}
	}
	return nil
}

// combinePairs groups the attempt's pairs by key and folds each group
// through the combiner. Range emissions never reach it (runMapAttempt
// expands them when a combiner is set).
func combinePairs(combine CombineFunc, pairs []emission, inAcc, outAcc int64) ([]emission, int64, int64) {
	grouped := make(map[int64][]string)
	for _, p := range pairs {
		grouped[p.lo] = append(grouped[p.lo], p.value)
	}
	out := pairs[:0]
	for k, vs := range grouped {
		inAcc += int64(len(vs))
		folded := combine(k, vs)
		outAcc += int64(len(folded))
		for _, v := range folded {
			out = append(out, emission{lo: k, hi: k, value: v})
		}
	}
	return out, inAcc, outAcc
}

// reduceResult is one reduce task's buffered output.
type reduceResult struct {
	key      int64
	output   []string
	duration time.Duration
	pairs    int64
}

func (e *Engine) reducePhase(job Job, shuffle *shuffleState, m *Metrics, snk *sink, writeOut bool, jobLane *obs.Lane) error {
	reduceStart := time.Now()
	var results []reduceResult
	var err error
	if shuffle.spilled() {
		results, err = e.reduceStreaming(job, shuffle, m, snk, jobLane)
	} else {
		results, err = e.reduceInMemory(job, shuffle, m, snk)
	}
	if err != nil {
		return err
	}
	slices.SortFunc(results, func(a, b reduceResult) int { return cmp.Compare(a.key, b.key) })

	for _, res := range results {
		m.ReducerTime[res.key] = res.duration
		if res.duration > m.MaxReducerTime {
			m.MaxReducerTime = res.duration
		}
		m.OutputRecords += int64(len(res.output))
	}
	m.MakespanKeyOrder, m.MakespanLPT = modelDispatchOrders(results, e.workers)
	if writeOut {
		outStart := jobLane.Begin()
		if err := e.writeOutput(job, results); err != nil {
			return err
		}
		if jobLane != nil {
			jobLane.End(obs.CatOutput, "output:"+job.Name, outStart)
		}
	}
	m.ReduceWall = time.Since(reduceStart)
	return nil
}

// modelDispatchOrders replays the measured reduce task durations through the
// list scheduler in ascending key order and in the longest-first order the
// engine dispatches (by shuffled value count), quantifying the straggler
// tail the LPT ordering removes.
func modelDispatchOrders(results []reduceResult, workers int) (keyOrder, lpt time.Duration) {
	durs := make([]time.Duration, len(results))
	for i, r := range results {
		durs[i] = r.duration
	}
	keyOrder = listMakespan(durs, workers)
	order := make([]int, len(results))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(results[b].pairs, results[a].pairs); c != 0 {
			return c
		}
		return cmp.Compare(results[a].key, results[b].key)
	})
	for i, oi := range order {
		durs[i] = results[oi].duration
	}
	return keyOrder, listMakespan(durs, workers)
}

// writeOutput commits the buffered reduce outputs: a single file, or — for
// directory outputs — one part file per reduce task, written in parallel.
func (e *Engine) writeOutput(job Job, results []reduceResult) error {
	if job.Output == "" {
		return nil
	}
	if !strings.HasSuffix(job.Output, "/") {
		w, err := e.store.Create(job.Output)
		if err != nil {
			return fmt.Errorf("mr: job %s: %w", job.Name, err)
		}
		for _, res := range results {
			for _, rec := range res.output {
				if err := w.Write(rec); err != nil {
					w.Close()
					return fmt.Errorf("mr: job %s: write output: %w", job.Name, err)
				}
			}
		}
		if err := w.Close(); err != nil {
			return fmt.Errorf("mr: job %s: close output: %w", job.Name, err)
		}
		return nil
	}
	// Part files, one per reduce task in key order, written concurrently.
	errc := make(chan error, e.workers)
	idxc := make(chan int, 2*e.workers)
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxc {
				name := partFileName(job.Output, i)
				pw, err := e.store.Create(name)
				if err != nil {
					errc <- fmt.Errorf("mr: job %s: %w", job.Name, err)
					for range idxc {
					}
					return
				}
				for _, rec := range results[i].output {
					if err := pw.Write(rec); err != nil {
						pw.Close()
						errc <- fmt.Errorf("mr: job %s: write %s: %w", job.Name, name, err)
						for range idxc {
						}
						return
					}
				}
				if err := pw.Close(); err != nil {
					errc <- fmt.Errorf("mr: job %s: close %s: %w", job.Name, name, err)
					for range idxc {
					}
					return
				}
			}
		}()
	}
	for i := range results {
		idxc <- i
	}
	close(idxc)
	wg.Wait()
	close(errc)
	return <-errc
}

// partFileName builds the Hadoop-style "<output>part-r-NNNNN" name with a
// five-digit zero-padded task index, append-style so the concurrent part
// writers stay off fmt.
func partFileName(output string, i int) string {
	s := strconv.Itoa(i)
	b := make([]byte, 0, len(output)+7+5+len(s))
	b = append(b, output...)
	b = append(b, "part-r-"...)
	for n := len(s); n < 5; n++ {
		b = append(b, '0')
	}
	b = append(b, s...)
	return string(b)
}

// runReduceTask executes one reduce task with retry semantics.
func (e *Engine) runReduceTask(job Job, task int, key int64, values []string, m *retryCounter, lane *obs.Lane, spanName string) (reduceResult, error) {
	taskStart := lane.Begin()
	if job.SortValues {
		slices.Sort(values)
	}
	for attempt := 1; ; attempt++ {
		var out []string
		write := func(record string) error {
			out = append(out, record)
			return nil
		}
		t0 := time.Now()
		err := func() error {
			if e.inject != nil {
				if err := e.inject(PhaseReduce, task, attempt); err != nil {
					return err
				}
			}
			return job.Reduce(key, values, write)
		}()
		if err == nil {
			if lane != nil {
				lane.End(obs.CatReduce, spanName, taskStart,
					obs.Arg{Key: "key", Val: strconv.FormatInt(key, 10)})
				lane.Observe("reduce_pairs", int64(len(values)))
			}
			return reduceResult{key: key, output: out, duration: time.Since(t0), pairs: int64(len(values))}, nil
		}
		if !errors.Is(err, ErrTransient) || attempt >= e.attempts {
			return reduceResult{}, fmt.Errorf("mr: job %s: reduce key %d: %w", job.Name, key, err)
		}
		m.add(1)
		if lane != nil {
			lane.Event(obs.CatReduce, "retry:"+job.Name)
			lane.Count("reduce_retries", 1)
		}
	}
}

// runReduceTaskSplit executes one reduce task, re-splitting it mid-job
// when its shuffled volume crossed Config.ResplitPairThreshold and the
// job opted in via Job.Resplit: the value list is re-sharded by the hook
// and the shards reduced concurrently on spare goroutines — the
// single-process analogue of re-scheduling a hot reduce task's input
// across idle cluster workers. Each shard keeps the original key and the
// full per-attempt retry machinery; the shard outputs are concatenated in
// shard order into one result, so downstream (sink delivery, output
// commit, per-key metrics) sees exactly one task whose duration is the
// wall clock of the whole split execution.
func (e *Engine) runReduceTaskSplit(job Job, task int, key int64, values []string, m *retryCounter, lane *obs.Lane, spanName string) (reduceResult, error) {
	if job.Resplit == nil || e.resplit <= 0 || len(values) < e.resplit {
		return e.runReduceTask(job, task, key, values, m, lane, spanName)
	}
	parts := (len(values) + e.resplit - 1) / e.resplit
	if parts > e.workers {
		parts = e.workers
	}
	if parts < 2 {
		parts = 2
	}
	splitStart := lane.Begin()
	t0 := time.Now()
	shards := job.Resplit(key, values, parts)
	if len(shards) <= 1 {
		return e.runReduceTask(job, task, key, values, m, lane, spanName)
	}
	results := make([]reduceResult, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	live := 0
	for si := range shards {
		if len(shards[si]) == 0 {
			continue
		}
		live++
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			slane := e.tracer.Acquire()
			defer e.tracer.Release(slane)
			var span string
			if slane != nil {
				span = "reduce-shard:" + job.Name
			}
			results[si], errs[si] = e.runReduceTask(job, task, key, shards[si], m, slane, span)
		}(si)
	}
	wg.Wait()
	merged := reduceResult{key: key, pairs: int64(len(values))}
	for si := range shards {
		if errs[si] != nil {
			return reduceResult{}, errs[si]
		}
		merged.output = append(merged.output, results[si].output...)
	}
	merged.duration = time.Since(t0)
	if lane != nil {
		lane.End(obs.CatResplit, "resplit:"+job.Name, splitStart,
			obs.Arg{Key: "key", Val: strconv.FormatInt(key, 10)},
			obs.Arg{Key: "shards", Val: strconv.Itoa(live)})
		lane.Count("resplit_tasks", 1)
		lane.Count("resplit_shards", int64(live))
	}
	return merged, nil
}

// withReduceLabels runs fn, labelling its goroutine for CPU profiles when
// the tracer asks for pprof labels, so profile samples attribute reduce
// time to (algorithm, cycle, job) instead of anonymous worker goroutines.
func (e *Engine) withReduceLabels(job Job, fn func()) {
	if !e.tracer.PprofLabels() {
		fn()
		return
	}
	labels := pprof.Labels(
		"mr_phase", "reduce",
		"job", job.Name,
		"algorithm", job.Meta.Algorithm,
		"cycle", strconv.Itoa(job.Meta.Cycle),
	)
	pprof.Do(context.Background(), labels, func(context.Context) { fn() })
}

// retryCounter accumulates retries across concurrent reduce tasks.
type retryCounter struct {
	mu sync.Mutex
	n  int64
}

func (rc *retryCounter) add(d int64) {
	rc.mu.Lock()
	rc.n += d
	rc.mu.Unlock()
}

func (e *Engine) reduceInMemory(job Job, shuffle *shuffleState, m *Metrics, snk *sink) ([]reduceResult, error) {
	keys := make([]int64, 0, m.DistinctKeys)
	for _, shard := range shuffle.shards {
		for k := range shard {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)

	// Dispatch longest-processing-time first (by shuffled value count):
	// classic list scheduling, which keeps the heaviest reduce task from
	// landing last and stretching the phase by a whole straggler. keys
	// stays key-sorted so results/output ordering is unaffected.
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(len(shuffle.group(keys[b])), len(shuffle.group(keys[a]))); c != 0 {
			return c
		}
		return cmp.Compare(keys[a], keys[b])
	})

	results := make([]reduceResult, len(keys))
	errc := make(chan error, e.workers)
	keyc := make(chan int, 2*e.workers)
	var retries retryCounter
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := e.tracer.Acquire()
			defer e.tracer.Release(lane)
			var reduceSpan string
			if lane != nil {
				reduceSpan = "reduce:" + job.Name
			}
			e.withReduceLabels(job, func() {
				for ki := range keyc {
					key := keys[ki]
					res, err := e.runReduceTaskSplit(job, ki, key, shuffle.group(key), &retries, lane, reduceSpan)
					if err != nil {
						errc <- err
						for range keyc {
						}
						return
					}
					results[ki] = res
					snk.deliver(res.output)
				}
			})
		}()
	}
	for _, ki := range order {
		keyc <- ki
	}
	close(keyc)
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return nil, err
	}
	m.TaskRetries += retries.n
	return results, nil
}

// reduceStreaming merges the spilled runs and in-memory leftovers in key
// order, dispatching each key's values to the worker pool as it completes —
// only one in-flight key list per worker is materialised.
func (e *Engine) reduceStreaming(job Job, shuffle *shuffleState, m *Metrics, snk *sink, jobLane *obs.Lane) ([]reduceResult, error) {
	cursors := make([]cursor, 0, len(shuffle.runFiles)+len(shuffle.leftover))
	for _, f := range shuffle.runFiles {
		rc, err := openRun(e.store, f)
		if err != nil {
			return nil, fmt.Errorf("mr: job %s: %w", job.Name, err)
		}
		defer rc.close()
		cursors = append(cursors, rc)
	}
	for _, l := range shuffle.leftover {
		cursors = append(cursors, &memCursor{ems: l})
	}

	type task struct {
		idx    int
		key    int64
		values *[]string
	}
	taskc := make(chan task, e.workers)
	errc := make(chan error, e.workers+1)
	var (
		mu      sync.Mutex
		results []reduceResult
		retries retryCounter
		wg      sync.WaitGroup
	)
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := e.tracer.Acquire()
			defer e.tracer.Release(lane)
			var reduceSpan string
			if lane != nil {
				reduceSpan = "reduce:" + job.Name
			}
			e.withReduceLabels(job, func() {
				for t := range taskc {
					res, err := e.runReduceTaskSplit(job, t.idx, t.key, *t.values, &retries, lane, reduceSpan)
					recycleValues(t.values)
					if err != nil {
						errc <- err
						for range taskc {
						}
						return
					}
					mu.Lock()
					results = append(results, res)
					mu.Unlock()
					snk.deliver(res.output)
				}
			})
		}()
	}
	idx := 0
	mergeStart := jobLane.Begin()
	mergeErr := mergeRuns(cursors, func(key int64, values []string) error {
		// The merge reuses its values slice, so each dispatched task gets a
		// pooled copy that the worker recycles once the task commits —
		// bounded scratch instead of a fresh allocation per key.
		cp := valuesPool.Get().(*[]string)
		*cp = append((*cp)[:0], values...)
		m.ReducerPairs[key] = int64(len(values))
		taskc <- task{idx: idx, key: key, values: cp}
		idx++
		return nil
	})
	if jobLane != nil {
		jobLane.End(obs.CatMerge, "merge:"+job.Name, mergeStart)
	}
	close(taskc)
	wg.Wait()
	close(errc)
	if mergeErr != nil {
		return nil, fmt.Errorf("mr: job %s: shuffle merge: %w", job.Name, mergeErr)
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	m.DistinctKeys = idx
	m.TaskRetries += retries.n
	return results, nil
}
