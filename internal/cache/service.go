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
	"intervaljoin/internal/interval"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
)

// Service is the resident-relation join service: relations register once
// (staged to the store under a versioned resident file), and windowed
// queries answer from the semantic segment cache, running the join engine
// only over the uncovered delta windows. It is the transport-free core of
// cmd/ijoind and directly usable in tests and benchmarks.
type Service struct {
	engine    *mr.Engine
	residents *dfs.Residents
	cache     *Cache
	tracer    *obs.Tracer
	opts      core.Options
	algorithm func(*query.Query) core.Algorithm

	// runMu serializes engine executions: the MapReduce engine models one
	// cluster, so delta joins queue while cache-served queries proceed
	// concurrently.
	runMu sync.Mutex

	mu   sync.Mutex
	rels map[string]*residentRel

	// runSeq numbers delta runs, naming each run's scratch namespace.
	runSeq atomic.Int64
}

// residentRel is one registered relation: the in-memory copy (bound into
// run contexts for planning), its staged store file + version, and the
// id → anchor index used to attach clip anchors to delta rows.
type residentRel struct {
	rel     *relation.Relation
	file    string
	version int
	anchors map[int64]interval.Interval
}

// ServiceConfig configures a Service.
type ServiceConfig struct {
	// Engine runs the delta joins. Required; its store receives the
	// resident files.
	Engine *mr.Engine
	// CacheBytes is the segment cache's byte budget (0 → DefaultBudget).
	CacheBytes int64
	// Tracer, when non-nil, receives the cache_* counters per query.
	Tracer *obs.Tracer
	// Opts are the base run options applied to every delta join; Window,
	// WindowRel, ResidentInputs and Scratch are overwritten per run.
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
		residents: dfs.NewResidents(cfg.Engine.Store()),
		cache:     New(cfg.CacheBytes),
		tracer:    cfg.Tracer,
		opts:      cfg.Opts,
		algorithm: alg,
		rels:      make(map[string]*residentRel),
	}, nil
}

// Register stages the relation as the next version of its name and makes
// it queryable. Re-registering a name bumps the version: cached segments
// built on the old version stop matching new queries' keys and age out of
// the LRU; in-flight queries keep reading the old resident file.
func (s *Service) Register(rel *relation.Relation) (version int, err error) {
	if err := rel.Validate(); err != nil {
		return 0, err
	}
	records := make([]string, rel.Len())
	anchors := make(map[int64]interval.Interval, rel.Len())
	for i, t := range rel.Tuples {
		records[i] = relation.EncodeRecord(relation.Header{}, t)
		anchors[t.ID] = t.Attrs[0]
	}
	file, version, err := s.residents.Register(rel.Schema.Name, records)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.rels[rel.Schema.Name] = &residentRel{rel: rel, file: file, version: version, anchors: anchors}
	s.mu.Unlock()
	return version, nil
}

// Relations lists the registered relation names, sorted.
func (s *Service) Relations() []string { return s.residents.Names() }

// Stats snapshots the segment cache accounting.
func (s *Service) Stats() Stats { return s.cache.Stats() }

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
	// Engine aggregates the engine metrics of the query's delta runs (one
	// Merge per gap window). Nil when the cache covered the whole window —
	// the telemetry bridge in cmd/ijoind publishes it after each query.
	Engine *mr.Metrics
	// Wall is the query's service-side latency.
	Wall time.Duration
}

// Query answers a windowed query: rows whose anchor intersects the closed
// window [w.Lo, w.Hi]. Every relation the query names must be registered.
// Cache-covered spans merge without touching the engine; uncovered gaps
// run as delta-window joins over the resident files and populate the cache
// for the next query.
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
	rels, files, versions, anchors, err := s.bind(q)
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

	// Merge: clip cached rows to the query window, then union in the delta
	// rows. Segment rows and engine results are already in canonical order
	// (the drivers sort, Insert re-checks), so the answer is a k-way merge
	// of sorted runs; the halo — rows whose anchor straddles a segment/gap
	// boundary arrive from both sides — dedups by dropping equal heads.
	runs := make([][]core.OutputTuple, 0, len(hits)+len(gaps))
	for _, seg := range hits {
		run := make([]core.OutputTuple, 0, len(seg.Rows))
		for _, r := range seg.Rows {
			if r.Anchor.Start > w.Hi || r.Anchor.End < w.Lo {
				continue
			}
			run = append(run, r.IDs)
		}
		runs = append(runs, run)
		ans.CachedRows += int64(len(seg.Rows))
	}
	for _, gap := range gaps {
		rows, algName, em, err := s.runDelta(engine, q, rels, files, gap)
		if err != nil {
			return nil, err
		}
		ans.Algorithm = algName
		ans.mergeEngine(em)
		ans.DeltaRows += int64(len(rows))
		cached := make([]Row, len(rows))
		for i, t := range rows {
			cached[i] = Row{IDs: t, Anchor: anchors[t[0]]}
		}
		s.cache.Insert(key, gap, cached)
		runs = append(runs, rows)
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
	rels, files, versions, _, err := s.bind(q)
	if err != nil {
		return nil, err
	}
	ans := &Answer{Window: w, Key: Key{Plan: core.CanonicalPlan(q), Family: q.Classify().String(), Versions: versions}}
	if query.ProvablyEmpty(q) {
		ans.Wall = time.Since(start)
		return ans, nil
	}
	rows, algName, em, err := s.runDelta(s.engine, q, rels, files, w)
	if err != nil {
		return nil, err
	}
	ans.Rows = rows
	ans.Algorithm = algName
	ans.mergeEngine(em)
	ans.DeltaWindows = []Window{w}
	ans.DeltaRows = int64(len(rows))
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

// bind resolves the query's relations against the registry, returning the
// bound relations, their resident files (query relation order), the
// version string for the cache key, and the anchor index of relation 0.
func (s *Service) bind(q *query.Query) ([]*relation.Relation, []string, string, map[int64]interval.Interval, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rels := make([]*relation.Relation, len(q.Relations))
	files := make([]string, len(q.Relations))
	versions := make([]byte, 0, 32)
	var anchors map[int64]interval.Interval
	for i, schema := range q.Relations {
		r, ok := s.rels[schema.Name]
		if !ok {
			return nil, nil, "", nil, fmt.Errorf("cache: relation %s is not registered", schema.Name)
		}
		rels[i] = r.rel
		files[i] = r.file
		if i > 0 {
			versions = append(versions, ',')
		}
		versions = append(versions, schema.Name...)
		versions = append(versions, "@v"...)
		versions = strconv.AppendInt(versions, int64(r.version), 10)
		if i == 0 {
			anchors = r.anchors
		}
	}
	return rels, files, string(versions), anchors, nil
}

// runDelta executes the join restricted to the gap window over the
// resident files, on the given engine (the shared one, or a per-query
// traced derivation). Engine runs serialize on runMu; the result is
// exactly the rows whose anchor intersects the gap, including whole
// (unclipped) straddling anchors — the halo the merge dedups — plus the
// run's engine metrics for the telemetry bridge. The run's scratch files
// are removed once its rows are read, so a long-running service's store
// holds only the resident files.
func (s *Service) runDelta(engine *mr.Engine, q *query.Query, rels []*relation.Relation, files []string, gap Window) ([]core.OutputTuple, string, *mr.Metrics, error) {
	opts := s.opts
	opts.Window = &[2]interval.Point{gap.Lo, gap.Hi}
	opts.WindowRel = 0
	opts.ResidentInputs = files
	opts.Scratch = "delta-" + strconv.FormatInt(s.runSeq.Add(1), 10)
	ctx, err := core.NewContext(engine, q, rels, opts)
	if err != nil {
		return nil, "", nil, err
	}
	alg := s.algorithm(q)
	s.runMu.Lock()
	res, err := alg.Run(ctx)
	s.runMu.Unlock()
	if cerr := removeScratch(engine.Store(), opts.Scratch+"/"); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, "", nil, err
	}
	return res.Tuples, res.Algorithm, res.Metrics, nil
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
