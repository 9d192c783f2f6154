package cache

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// Service is the resident-relation join service: relations register once
// into an in-memory index sorted by anchor start, and windowed queries
// answer from the semantic segment cache, running the join engine only
// over the uncovered delta windows, each fed only the tuples the window
// can reach. It is the transport-free core of cmd/ijoind and directly
// usable in tests and benchmarks.
type Service struct {
	engine    *mr.Engine
	cache     *Cache
	tracer    *obs.Tracer
	opts      core.Options
	algorithm func(*query.Query) core.Algorithm

	// runMu serializes engine executions: the MapReduce engine models one
	// cluster, so delta joins queue while cache-served queries proceed
	// concurrently.
	runMu sync.Mutex

	mu      sync.Mutex
	rels    map[string]*resident
	flights map[flightKey]*flight

	// runSeq numbers delta runs, naming each run's scratch namespace.
	runSeq atomic.Int64
	// shared counts gaps taken from another query's in-flight run.
	shared atomic.Int64
}

// flightKey identifies one delta run: the same gap of the same result
// space (which pins the relation versions) yields the same rows.
type flightKey struct {
	key Key
	gap Window
}

// flight is a delta run in progress; done closes once seg or err is set.
type flight struct {
	done chan struct{}
	seg  *Segment
	alg  string
	err  error
}

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Engine runs the delta joins. Required; its store holds each run's
	// staged slices and intermediates until the run ends.
	Engine *mr.Engine
	// CacheBytes is the segment cache's byte budget (0 → DefaultBudget).
	CacheBytes int64
	// Tracer, when non-nil, receives the cache_* counters per query.
	Tracer *obs.Tracer
	// Opts are the base run options applied to every delta join; Scratch
	// is overwritten and Window cleared per run.
	Opts core.Options
	// Algorithm optionally overrides the planner's choice per query; nil
	// uses core.Plan.
	Algorithm func(*query.Query) core.Algorithm
}

// NewService builds a service over the engine's store.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("cache: ServiceConfig.Engine is required")
	}
	alg := cfg.Algorithm
	if alg == nil {
		alg = func(q *query.Query) core.Algorithm { return core.Plan(q, false) }
	}
	return &Service{
		engine:    cfg.Engine,
		cache:     New(cfg.CacheBytes),
		tracer:    cfg.Tracer,
		opts:      cfg.Opts,
		algorithm: alg,
		rels:      make(map[string]*resident),
		flights:   make(map[flightKey]*flight),
	}, nil
}

// Register indexes the relation as the next version of its name and makes
// it queryable. Re-registering a name bumps the version: cached segments
// built on the old version stop matching new queries' keys and age out of
// the LRU; in-flight queries keep the index they bound. The service keeps
// the relation, so the caller must not modify it afterwards.
func (s *Service) Register(rel *relation.Relation) (version int, err error) {
	if rel.Schema.Name == "" {
		return 0, fmt.Errorf("cache: a registered relation needs a name")
	}
	if rel.Schema.Arity() == 0 {
		return 0, fmt.Errorf("cache: relation %s has no attributes", rel.Schema.Name)
	}
	if err := rel.Validate(); err != nil {
		return 0, err
	}
	r := newResident(rel)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.rels[rel.Schema.Name]; ok {
		r.version = old.version
	}
	r.version++
	s.rels[rel.Schema.Name] = r
	return r.version, nil
}

// Relations lists the registered relation names, sorted.
func (s *Service) Relations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.rels))
	for n := range s.rels {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Stats snapshots the segment cache accounting, plus the gaps the service
// shared between concurrent queries.
func (s *Service) Stats() Stats {
	st := s.cache.Stats()
	st.SharedGaps = s.shared.Load()
	return st
}

// Answer is one query's result and its cache provenance.
type Answer struct {
	// Rows is the deduplicated result: every join row whose anchor (first
	// attribute of the first relation's tuple) intersects the query
	// window. Sorted canonically.
	Rows []core.OutputTuple
	// Window echoes the queried window.
	Window Window
	// Key is the cache key the query resolved to.
	Key Key
	// HitSegments is the number of cached segments merged in;
	// DeltaWindows are the uncovered gaps the engine re-joined.
	HitSegments  int
	DeltaWindows []Window
	// CachedRows / DeltaRows count merged rows by provenance, before
	// clipping and dedup.
	CachedRows, DeltaRows int64
	// Algorithm is the driver that ran the delta joins ("" on a full hit).
	Algorithm string
	// Engine aggregates the engine metrics of the delta runs this query
	// executed (one Merge per gap window). Nil when it ran none: the cache
	// covered the whole window, or every gap was shared with a concurrent
	// query's run. The telemetry bridge in cmd/ijoind publishes it after
	// each query.
	Engine *mr.Metrics
	// Wall is the query's service-side latency.
	Wall time.Duration
}

// Query answers a windowed query: rows whose anchor intersects the closed
// window [w.Lo, w.Hi]. Every relation the query names must be registered.
// Cache-covered spans merge without touching the engine; uncovered gaps
// run as delta-window joins over the tuples they can reach and populate
// the cache for the next query.
func (s *Service) Query(q *query.Query, w Window) (*Answer, error) {
	return s.queryOn(s.engine, q, w)
}

// QueryTraced answers exactly like Query but runs the query's delta joins
// on an engine derived with tr, so a sampled request's execution spans
// land in a tracer of their own (dumped as a per-query Chrome trace by
// cmd/ijoind). Rows are byte-identical to an untraced Query — tracing
// never changes results, only what gets recorded.
func (s *Service) QueryTraced(q *query.Query, w Window, tr *obs.Tracer) (*Answer, error) {
	return s.queryOn(s.engine.WithTracer(tr), q, w)
}

func (s *Service) queryOn(engine *mr.Engine, q *query.Query, w Window) (*Answer, error) {
	start := time.Now()
	if w.Hi < w.Lo {
		return nil, fmt.Errorf("cache: window [%d,%d] is empty", w.Lo, w.Hi)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	res, versions, err := s.bind(q)
	if err != nil {
		return nil, err
	}
	key := Key{
		Plan:     core.CanonicalPlan(q),
		Family:   q.Classify().String(),
		Versions: versions,
	}
	ans := &Answer{Window: w, Key: key}
	if query.ProvablyEmpty(q) {
		ans.Wall = time.Since(start)
		return ans, nil
	}

	hits, gaps := s.cache.Lookup(key, w)
	ans.HitSegments = len(hits)
	ans.DeltaWindows = gaps

	// Merge: clip cached and delta segments to the query window. Segment
	// rows are in canonical order (the drivers sort, newSegment re-checks),
	// so the answer is a k-way merge of sorted runs; the halo — rows whose
	// anchor straddles a segment/gap boundary arrive from both sides —
	// dedups by dropping equal heads.
	runs := make([][]core.OutputTuple, 0, len(hits)+len(gaps))
	for _, seg := range hits {
		runs = append(runs, seg.clip(w))
		ans.CachedRows += int64(seg.Len())
	}
	for _, gap := range gaps {
		seg, algName, em, err := s.fill(engine, key, q, res, gap)
		if err != nil {
			return nil, err
		}
		ans.Algorithm = algName
		ans.mergeEngine(em)
		ans.DeltaRows += int64(seg.Len())
		runs = append(runs, seg.clip(w))
	}
	ans.Rows = mergeRuns(runs)

	s.tracer.Count("cache_lookups", 1)
	s.tracer.Count("cache_hit_segments", int64(len(hits)))
	s.tracer.Count("cache_delta_rows", ans.DeltaRows)
	s.tracer.Count("cache_cached_rows", ans.CachedRows)
	if len(gaps) == 0 {
		s.tracer.Count("cache_full_hits", 1)
	}
	ans.Wall = time.Since(start)
	return ans, nil
}

// fill returns the segment of rows anchored in the gap and caches it. A
// query asking for a gap another query is already joining waits for that
// run and shares its segment instead of queueing a second engine run; it
// gets no engine metrics, since it ran nothing.
func (s *Service) fill(engine *mr.Engine, key Key, q *query.Query, res []*resident, gap Window) (*Segment, string, *mr.Metrics, error) {
	fk := flightKey{key: key, gap: gap}
	s.mu.Lock()
	if f, ok := s.flights[fk]; ok {
		s.mu.Unlock()
		s.shared.Add(1)
		<-f.done
		return f.seg, f.alg, nil, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[fk] = f
	s.mu.Unlock()

	var em *mr.Metrics
	f.seg, f.alg, em, f.err = s.deltaSegment(engine, key, q, res, gap)
	if f.err == nil {
		s.cache.Insert(f.seg)
	}
	s.mu.Lock()
	delete(s.flights, fk)
	s.mu.Unlock()
	close(f.done)
	return f.seg, f.alg, em, f.err
}

// deltaSegment joins the gap and flattens the rows, each with its anchor
// from the run's relation-0 slice, into a segment.
func (s *Service) deltaSegment(engine *mr.Engine, key Key, q *query.Query, res []*resident, gap Window) (*Segment, string, *mr.Metrics, error) {
	out, anchorRel, err := s.runDelta(engine, q, res, gap)
	if err != nil {
		return nil, "", nil, err
	}
	byID := slices.Clone(anchorRel.Tuples)
	slices.SortFunc(byID, func(a, b relation.Tuple) int { return cmp.Compare(a.ID, b.ID) })
	rows := make([]Row, len(out.Tuples))
	for i, t := range out.Tuples {
		j, _ := slices.BinarySearchFunc(byID, t[0], func(a relation.Tuple, id int64) int { return cmp.Compare(a.ID, id) })
		rows[i] = Row{IDs: t, Anchor: byID[j].Attrs[0]}
	}
	return newSegment(key, gap, rows), out.Algorithm, out.Metrics, nil
}

// RunCold answers the windowed query with a single engine run over the
// whole window, bypassing the cache entirely — neither reading nor
// populating it. It is the benchmark's cold control and the equivalence
// tests' engine-side oracle; Query with a warm cache must produce exactly
// this row set.
func (s *Service) RunCold(q *query.Query, w Window) (*Answer, error) {
	start := time.Now()
	if w.Hi < w.Lo {
		return nil, fmt.Errorf("cache: window [%d,%d] is empty", w.Lo, w.Hi)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	res, versions, err := s.bind(q)
	if err != nil {
		return nil, err
	}
	ans := &Answer{Window: w, Key: Key{Plan: core.CanonicalPlan(q), Family: q.Classify().String(), Versions: versions}}
	if query.ProvablyEmpty(q) {
		ans.Wall = time.Since(start)
		return ans, nil
	}
	out, _, err := s.runDelta(s.engine, q, res, w)
	if err != nil {
		return nil, err
	}
	ans.Rows = out.Tuples
	ans.Algorithm = out.Algorithm
	ans.mergeEngine(out.Metrics)
	ans.DeltaWindows = []Window{w}
	ans.DeltaRows = int64(len(out.Tuples))
	slices.SortFunc(ans.Rows, compareTuples)
	ans.Wall = time.Since(start)
	return ans, nil
}

// mergeRuns merges sorted duplicate-free runs into one sorted run,
// dropping cross-run duplicates (the boundary halo). Runs are tiny in
// number — one per merged segment or delta window — so the linear
// min-scan beats a heap.
func mergeRuns(runs [][]core.OutputTuple) []core.OutputTuple {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	total := 0
	idx := make([]int, len(runs))
	for _, r := range runs {
		total += len(r)
	}
	out := make([]core.OutputTuple, 0, total)
	for {
		best := -1
		for i, r := range runs {
			if idx[i] >= len(r) {
				continue
			}
			if best < 0 || compareTuples(r[idx[i]], runs[best][idx[best]]) < 0 {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		t := runs[best][idx[best]]
		idx[best]++
		if n := len(out); n == 0 || compareTuples(out[n-1], t) != 0 {
			out = append(out, t)
		}
	}
}

// compareTuples orders output tuples lexicographically by id.
func compareTuples(a, b core.OutputTuple) int {
	for k := range a {
		if k >= len(b) {
			return 1
		}
		if c := cmp.Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// bind resolves the query's relations against the registry, returning
// each relation's index (query relation order) and the version string for
// the cache key. Both are read under one lock, so a key's versions always
// name the indexes the answer is computed from.
func (s *Service) bind(q *query.Query) ([]*resident, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := make([]*resident, len(q.Relations))
	versions := make([]byte, 0, 32)
	for i, schema := range q.Relations {
		r, ok := s.rels[schema.Name]
		if !ok {
			return nil, "", fmt.Errorf("cache: relation %s is not registered", schema.Name)
		}
		res[i] = r
		if i > 0 {
			versions = append(versions, ',')
		}
		versions = append(versions, schema.Name...)
		versions = append(versions, "@v"...)
		versions = strconv.AppendInt(versions, int64(r.version), 10)
	}
	return res, string(versions), nil
}

// runDelta executes the join restricted to the window on the given engine
// (the shared one, or a per-query traced derivation), feeding it only the
// tuples the window can reach (see reach). Engine runs serialize on runMu.
// The result is exactly the rows whose anchor intersects the window,
// including whole (unclipped) straddling anchors — the halo the merge
// dedups — plus the run's engine metrics; the relation-0 slice is
// returned for the rows' anchors. The run stages its slices and writes
// its intermediates under its own scratch namespace and removes every
// file there once its rows are read, so the store is empty between runs.
func (s *Service) runDelta(engine *mr.Engine, q *query.Query, res []*resident, w Window) (*core.Result, *relation.Relation, error) {
	rels := reach(q, res, w)
	opts := s.opts
	opts.Window = nil
	opts.Scratch = "delta-" + strconv.FormatInt(s.runSeq.Add(1), 10)
	ctx, err := core.NewContext(engine, q, rels, opts)
	if err != nil {
		return nil, nil, err
	}
	alg := s.algorithm(q)
	s.runMu.Lock()
	out, err := alg.Run(ctx)
	s.runMu.Unlock()
	if cerr := removeScratch(engine.Store(), opts.Scratch+"/"); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return out, rels[0], nil
}

// removeScratch deletes every store file under the prefix.
func removeScratch(store dfs.Store, prefix string) error {
	names, err := store.List(prefix)
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := store.Remove(name); err != nil {
			return err
		}
	}
	return nil
}

// mergeEngine folds one delta run's engine metrics into the answer.
func (a *Answer) mergeEngine(m *mr.Metrics) {
	if m == nil {
		return
	}
	if a.Engine == nil {
		a.Engine = mr.NewMetrics("query")
		a.Engine.Cycles = 0
	}
	a.Engine.Merge(m)
}
