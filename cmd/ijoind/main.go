// Command ijoind is the long-running interval-join service: it holds
// resident relations as in-memory indexes and answers windowed join
// queries over an HTTP/JSON API, serving covered time spans from a
// semantic segment cache and running the join engine only over the
// tuples the uncovered delta windows can reach (see docs/SERVICE.md).
//
// Serve mode:
//
//	ijoind -rel R1=a.txt -rel R2=b.txt [-addr :7077] [-cache-mb 64]
//	       [-max-inflight 4] [-workers N] [-partitions 16] [-per-dim 6]
//	       [-algorithm name] [-metrics metrics.json]
//	       [-log-level info] [-slow-query 2s]
//	       [-trace-dir DIR] [-trace-sample N] [-trace-keep 16]
//
//	POST /query         {"query":"R1 overlaps R2","lo":0,"hi":5000}
//	                    → {"rows":[[3,7],...],"hit_segments":1,...}
//	GET  /metrics       → Prometheus text-format telemetry (docs/OBSERVABILITY.md)
//	GET  /stats         → cache accounting JSON (back-compat)
//	GET  /healthz       → 200 "ok" (503 while draining)
//	GET  /debug/pprof/  → runtime profiles
//
// Admission control holds at most -max-inflight queries in the join path;
// excess requests get 429. Requests are logged as structured JSON
// (log/slog) with a per-request id; queries slower than -slow-query get a
// warning line. With -trace-dir set, every -trace-sample'th query — plus
// the query after any slow one — runs under a fresh tracer and dumps a
// Perfetto-loadable Chrome trace into a bounded ring of files.
// SIGINT/SIGTERM drains in-flight queries via http.Server.Shutdown,
// answers new ones with 503, flushes -metrics, and exits.
//
// Bench mode (-bench) runs the zipfian query-mix benchmark without HTTP:
// a cold pass (every query joined from scratch) against a warm pass (the
// same mix through the segment cache), verifying byte-identical row sets,
// and writes the cache section of metrics.json that benchsummary -cache
// reads. Without -rel bindings it generates the paper's Table 1 relations.
//
// Selfcheck mode (-selfcheck) boots the server on a loopback port, fires
// the query mix at it over HTTP, scrapes and validates /metrics, verifies
// a sampled trace appeared, writes the scrape to -scrape-out, and exits
// non-zero on any telemetry defect — the live-scrape gate scripts/check.sh
// runs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"intervaljoin"
	"intervaljoin/internal/cache"
	"intervaljoin/internal/core"
	"intervaljoin/internal/dfs"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
	"intervaljoin/internal/obs/live"
	"intervaljoin/internal/query"
	"intervaljoin/internal/relation"
	"intervaljoin/internal/workload"
)

type relArg struct {
	name, path string
}

// serveConfig carries the serve-mode knobs from flag parsing to serve().
type serveConfig struct {
	addr        string
	maxInflight int
	metricsOut  string
	logLevel    string
	slowQuery   time.Duration
	traceDir    string
	traceSample int64
	traceKeep   int
}

func main() {
	var (
		addr       = flag.String("addr", ":7077", "HTTP listen address")
		cacheMB    = flag.Int64("cache-mb", 64, "segment cache byte budget in MiB")
		maxInfl    = flag.Int("max-inflight", 4, "admission control: concurrent queries beyond this get 429")
		workers    = flag.Int("workers", 0, "engine parallelism (0 = GOMAXPROCS)")
		partitions = flag.Int("partitions", 16, "partitions for 1-D algorithms")
		perDim     = flag.Int("per-dim", 6, "partitions per grid dimension for matrix algorithms")
		algorithm  = flag.String("algorithm", "", "join algorithm (default: planner choice per query)")
		dataDir    = flag.String("data-dir", "", "store delta runs' staged slices and intermediates on disk under this directory")
		metricsOut = flag.String("metrics", "", "write metrics.json (with the cache section) here on shutdown / after -bench")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		slowQuery  = flag.Duration("slow-query", 2*time.Second, "log queries slower than this as slow (0 disables)")
		traceDir   = flag.String("trace-dir", "", "write sampled per-query Chrome traces into this directory (empty disables)")
		traceN     = flag.Int64("trace-sample", 0, "with -trace-dir, trace every Nth query (0: only latency-triggered captures)")
		traceKeep  = flag.Int("trace-keep", defaultTraceKeep, "bounded trace ring: keep at most this many trace files")
		bench      = flag.Bool("bench", false, "run the zipfian query-mix benchmark and exit (no HTTP)")
		selfcheck  = flag.Bool("selfcheck", false, "boot on a loopback port, drive the query mix over HTTP, validate /metrics, and exit")
		scrapeOut  = flag.String("scrape-out", "artifacts/live-metrics.prom", "selfcheck: write the validated /metrics scrape here")
		benchQuery = flag.String("query", "R1 overlaps R2", "bench/selfcheck: the join query of the mix")
		queries    = flag.Int("queries", 200, "bench/selfcheck: number of windows in the mix")
		skew       = flag.Float64("skew", 1.5, "bench: zipf exponent of the hotspot popularity (>1)")
		hotspots   = flag.Int("hotspots", 8, "bench: number of hot window centers")
		rows       = flag.Int("rows", 20_000, "bench/selfcheck: generated rows per relation when no -rel is given")
		seed       = flag.Int64("seed", 1, "bench: generation and mix seed")
	)
	var relArgs []relArg
	flag.Func("rel", "resident relation binding name=file (repeatable)", func(s string) error {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 || eq == len(s)-1 {
			return fmt.Errorf("want name=file, got %q", s)
		}
		relArgs = append(relArgs, relArg{name: s[:eq], path: s[eq+1:]})
		return nil
	})
	flag.Parse()

	tracer := obs.New(obs.Options{})
	var store dfs.Store = dfs.NewMem()
	if *dataDir != "" {
		d, err := dfs.NewDisk(*dataDir)
		if err != nil {
			fatal(err)
		}
		store = d
	}
	engine := mr.NewEngine(mr.Config{Store: store, Workers: *workers, Tracer: tracer})

	var algFn func(*query.Query) core.Algorithm
	if *algorithm != "" {
		alg, err := intervaljoin.AlgorithmByName(*algorithm)
		if err != nil {
			fatal(err)
		}
		algFn = func(*query.Query) core.Algorithm { return alg }
	}
	svc, err := cache.NewService(cache.ServiceConfig{
		Engine:     engine,
		CacheBytes: *cacheMB << 20,
		Tracer:     tracer,
		Opts:       core.Options{Partitions: *partitions, PartitionsPerDim: *perDim},
		Algorithm:  algFn,
	})
	if err != nil {
		fatal(err)
	}

	rels, err := loadOrGenerate(relArgs, *bench || *selfcheck, *rows, *seed)
	if err != nil {
		fatal(err)
	}
	var tmin, tmax int64 = 0, 1
	if t0, tn, ok := relation.Bounds(rels...); ok {
		tmin, tmax = t0, tn
	}
	for _, r := range rels {
		if _, err := svc.Register(r); err != nil {
			fatal(err)
		}
	}

	if *bench {
		if err := runBench(svc, tracer, benchSpec{
			query: *benchQuery, queries: *queries, skew: *skew, hotspots: *hotspots,
			tmin: tmin, tmax: tmax, seed: *seed, metricsOut: *metricsOut,
		}); err != nil {
			fatal(err)
		}
		return
	}
	cfg := serveConfig{
		addr:        *addr,
		maxInflight: *maxInfl,
		metricsOut:  *metricsOut,
		logLevel:    *logLevel,
		slowQuery:   *slowQuery,
		traceDir:    *traceDir,
		traceSample: *traceN,
		traceKeep:   *traceKeep,
	}
	if *selfcheck {
		if err := runSelfcheck(svc, tracer, cfg, selfcheckSpec{
			query: *benchQuery, queries: *queries, tmin: tmin, tmax: tmax,
			scrapeOut: *scrapeOut,
		}); err != nil {
			fatal(err)
		}
		return
	}
	if err := serve(svc, tracer, cfg); err != nil {
		fatal(err)
	}
}

// loadOrGenerate loads the -rel bindings, or (bench and selfcheck modes
// only) generates the paper's Table 1 relations R1 and R2.
func loadOrGenerate(relArgs []relArg, generate bool, rows int, seed int64) ([]*relation.Relation, error) {
	if len(relArgs) == 0 {
		if !generate {
			return nil, fmt.Errorf("no -rel bindings; serve mode needs resident relations")
		}
		r1, err := workload.Generate(workload.Table1Spec("R1", rows, seed))
		if err != nil {
			return nil, err
		}
		r2, err := workload.Generate(workload.Table1Spec("R2", rows, seed+1))
		if err != nil {
			return nil, err
		}
		return []*relation.Relation{r1, r2}, nil
	}
	rels := make([]*relation.Relation, 0, len(relArgs))
	for _, ra := range relArgs {
		rel, err := relation.LoadFile(relation.NewSchema(ra.name), ra.path)
		if err != nil {
			return nil, err
		}
		rels = append(rels, rel)
	}
	return rels, nil
}

// ---- serve mode ----

// drainTimeout bounds graceful shutdown: Shutdown waits this long for
// in-flight queries before closing connections hard.
const drainTimeout = 30 * time.Second

type server struct {
	svc      *cache.Service
	tracer   *obs.Tracer
	tel      *telemetry
	log      *slog.Logger
	inflight chan struct{}
	draining atomic.Bool

	reqSeq   atomic.Int64 // request ids, all endpoints
	querySeq atomic.Int64 // admitted /query requests, drives sampling

	slowQuery   time.Duration
	traceSample int64
	traces      *traceRing
	slowArm     atomic.Bool // latency-triggered capture: trace the next query
}

type queryRequest struct {
	Query string `json:"query"`
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
}

type windowJSON struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
}

type queryResponse struct {
	Rows         [][]int64    `json:"rows"`
	Window       windowJSON   `json:"window"`
	HitSegments  int          `json:"hit_segments"`
	DeltaWindows []windowJSON `json:"delta_windows,omitempty"`
	CachedRows   int64        `json:"cached_rows"`
	DeltaRows    int64        `json:"delta_rows"`
	Algorithm    string       `json:"algorithm,omitempty"`
	WallNS       int64        `json:"wall_ns"`
}

// parseLogLevel maps the -log-level flag onto slog levels.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", s)
}

// newServer assembles the handler state shared by serve and selfcheck.
func newServer(svc *cache.Service, tracer *obs.Tracer, cfg serveConfig) (*server, error) {
	level, err := parseLogLevel(cfg.logLevel)
	if err != nil {
		return nil, err
	}
	maxInflight := cfg.maxInflight
	if maxInflight <= 0 {
		maxInflight = 1
	}
	s := &server{
		svc:         svc,
		tracer:      tracer,
		tel:         newTelemetry(svc),
		log:         slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level})),
		inflight:    make(chan struct{}, maxInflight),
		slowQuery:   cfg.slowQuery,
		traceSample: cfg.traceSample,
	}
	if cfg.traceDir != "" {
		ring, err := newTraceRing(cfg.traceDir, cfg.traceKeep)
		if err != nil {
			return nil, err
		}
		s.traces = ring
	}
	return s, nil
}

// mux builds the server's route table.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func serve(svc *cache.Service, tracer *obs.Tracer, cfg serveConfig) error {
	s, err := newServer(svc, tracer, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler: s.mux(),
		// A client that dribbles its headers must not pin a connection
		// forever; body reads are bounded by the drain deadline instead.
		ReadHeaderTimeout: 5 * time.Second,
	}
	// The serving line keeps its legacy plain format — cmd/cmdtest and
	// operator scripts parse the address out of it; structured request
	// logs follow on the same stream.
	fmt.Fprintf(os.Stderr, "ijoind: serving %v on %s (relations: %s)\n",
		time.Now().Format(time.RFC3339), ln.Addr(), strings.Join(svc.Relations(), ", "))

	// Graceful shutdown: the first signal flips the server to draining —
	// new queries see 503 — and http.Server.Shutdown waits (bounded by
	// drainTimeout) for in-flight handlers before closing connections;
	// then metrics flush and exit.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sigc
		s.startDrain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		done <- httpSrv.Shutdown(ctx)
	}()
	err = httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		err = <-done
	}
	if cfg.metricsOut != "" {
		if werr := writeFileWith(cfg.metricsOut, func(w io.Writer) error {
			return cacheReportJSON(w, svc, tracer, 0, 0)
		}); werr != nil && err == nil {
			err = werr
		}
		s.log.Info("metrics flushed", "path", cfg.metricsOut)
	}
	return err
}

// startDrain flips the server into drain state (idempotently safe).
func (s *server) startDrain() {
	s.draining.Store(true)
	s.tel.draining.Set(1)
	s.log.Info("draining in-flight queries")
}

// fail rejects a request: counts the status code, logs, and writes the
// error response.
func (s *server) fail(w http.ResponseWriter, lg *slog.Logger, code int, msg string) {
	s.tel.countRequest(code)
	if code == http.StatusTooManyRequests {
		s.tel.rejected.Inc()
	}
	lg.Warn("request rejected", "status", code, "error", msg)
	http.Error(w, msg, code)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := s.reqSeq.Add(1)
	lg := s.log.With("req", id)
	if r.Method != http.MethodPost {
		s.fail(w, lg, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		s.fail(w, lg, http.StatusServiceUnavailable, "draining")
		return
	}
	select {
	case s.inflight <- struct{}{}:
		s.tel.inflight.Inc()
		defer func() {
			s.tel.inflight.Dec()
			<-s.inflight
		}()
	default:
		s.fail(w, lg, http.StatusTooManyRequests, "too many in-flight queries")
		return
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, lg, http.StatusBadRequest, err.Error())
		return
	}
	q, err := query.Parse(req.Query)
	if err != nil {
		s.fail(w, lg, http.StatusBadRequest, err.Error())
		return
	}
	lg = lg.With("query", req.Query, "lo", req.Lo, "hi", req.Hi)

	// Sampling: every traceSample'th admitted query runs under a fresh
	// tracer, as does the first query after a slow one (the
	// latency-triggered capture) — traced runs return byte-identical rows,
	// only the recording differs.
	qid := s.querySeq.Add(1)
	var tr *obs.Tracer
	if s.traces != nil {
		if s.traceSample > 0 && qid%s.traceSample == 0 {
			tr = obs.New(obs.Options{})
		} else if s.slowArm.CompareAndSwap(true, false) {
			tr = obs.New(obs.Options{})
		}
	}
	var ans *cache.Answer
	if tr != nil {
		ans, err = s.svc.QueryTraced(q, cache.Window{Lo: req.Lo, Hi: req.Hi}, tr)
	} else {
		ans, err = s.svc.Query(q, cache.Window{Lo: req.Lo, Hi: req.Hi})
	}
	if err != nil {
		s.fail(w, lg, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.tel.countRequest(http.StatusOK)
	s.tel.observeAnswer(ans.Wall, req.Hi-req.Lo+1, ans.HitSegments, len(ans.DeltaWindows), len(ans.Rows), ans.Engine)

	var tracePath string
	if tr != nil {
		if tracePath, err = s.traces.write(qid, tr.Snapshot()); err != nil {
			lg.Warn("query trace not written", "error", err.Error())
			tracePath = ""
		} else {
			s.tel.traces.Inc()
		}
	}
	slow := s.slowQuery > 0 && ans.Wall > s.slowQuery
	if slow {
		s.tel.slowQueries.Inc()
		if s.traces != nil && tracePath == "" {
			// Arm the latency-triggered capture: the next query runs traced.
			s.slowArm.Store(true)
		}
	}
	attrs := []any{
		"status", http.StatusOK,
		"rows", len(ans.Rows),
		"hit_segments", ans.HitSegments,
		"delta_windows", len(ans.DeltaWindows),
		"algorithm", ans.Algorithm,
		"wall", ans.Wall.String(),
	}
	if tracePath != "" {
		attrs = append(attrs, "trace", tracePath)
	}
	if slow {
		lg.Warn("slow query", attrs...)
	} else {
		lg.Info("query", attrs...)
	}

	resp := queryResponse{
		Rows:        make([][]int64, len(ans.Rows)),
		Window:      windowJSON{Lo: int64(ans.Window.Lo), Hi: int64(ans.Window.Hi)},
		HitSegments: ans.HitSegments,
		CachedRows:  ans.CachedRows,
		DeltaRows:   ans.DeltaRows,
		Algorithm:   ans.Algorithm,
		WallNS:      ans.Wall.Nanoseconds(),
	}
	for i, t := range ans.Rows {
		resp.Rows[i] = t
	}
	for _, d := range ans.DeltaWindows {
		resp.DeltaWindows = append(resp.DeltaWindows, windowJSON{Lo: int64(d.Lo), Hi: int64(d.Hi)})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		lg.Debug("response write failed", "error", err.Error())
	}
}

// handleMetrics serves the live registry in the Prometheus text format.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.tel.countRequest(http.StatusOK)
	w.Header().Set("Content-Type", live.ContentType)
	if err := live.WriteText(w, s.tel.reg.Snapshot()); err != nil {
		s.log.Debug("metrics write failed", "error", err.Error())
	}
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	// Render into a buffer first so a report error can still become a
	// clean 500 instead of a truncated 200 body.
	var buf bytes.Buffer
	if err := cacheReportJSON(&buf, s.svc, s.tracer, 0, 0); err != nil {
		s.fail(w, s.log, http.StatusInternalServerError, err.Error())
		return
	}
	s.tel.countRequest(http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.log.Debug("stats write failed", "error", err.Error())
	}
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.tel.countRequest(http.StatusServiceUnavailable)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	s.tel.countRequest(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// ---- bench mode ----

type benchSpec struct {
	query      string
	queries    int
	skew       float64
	hotspots   int
	tmin, tmax int64
	seed       int64
	metricsOut string
}

// runBench measures the zipfian mix cold (every query joined from scratch,
// cache bypassed) and warm (through the segment cache), verifies the row
// sets match query-by-query, and writes/prints the cache report.
func runBench(svc *cache.Service, tracer *obs.Tracer, b benchSpec) error {
	q, err := query.Parse(b.query)
	if err != nil {
		return err
	}
	mix, err := workload.ZipfQueryMix(workload.QueryMixSpec{
		N: b.queries, TMin: b.tmin, TMax: b.tmax,
		Hotspots: b.hotspots, Skew: b.skew, Seed: b.seed,
	})
	if err != nil {
		return err
	}
	var coldNS, warmNS int64
	for i, w := range mix {
		win := cache.Window{Lo: w.Lo, Hi: w.Hi}
		cold, err := svc.RunCold(q, win)
		if err != nil {
			return err
		}
		warm, err := svc.Query(q, win)
		if err != nil {
			return err
		}
		coldNS += cold.Wall.Nanoseconds()
		warmNS += warm.Wall.Nanoseconds()
		if err := sameRows(cold.Rows, warm.Rows); err != nil {
			return fmt.Errorf("query %d window [%d,%d]: warm result diverges from cold: %w", i, w.Lo, w.Hi, err)
		}
	}
	n := int64(len(mix))
	if n == 0 {
		return fmt.Errorf("empty query mix")
	}
	coldNS /= n
	warmNS /= n
	st := svc.Stats()
	speedup := float64(coldNS) / float64(max64(warmNS, 1))
	fmt.Printf("queries=%d hit_ratio=%.3f full_hits=%d partial_hits=%d misses=%d segments_merged=%d\n",
		st.Lookups, st.HitRatio(), st.FullHits, st.PartialHits, st.Misses, st.HitSegments)
	fmt.Printf("cold_mean=%v warm_mean=%v speedup=%.1fx cached_rows=%d delta_rows=%d evictions=%d\n",
		time.Duration(coldNS), time.Duration(warmNS), speedup, st.CachedRows, st.DeltaRows, st.Evictions)
	if b.metricsOut != "" {
		return writeFileWith(b.metricsOut, func(w io.Writer) error {
			return cacheReportJSON(w, svc, tracer, coldNS, warmNS)
		})
	}
	return nil
}

func sameRows(a, b []core.OutputTuple) error {
	if len(a) != len(b) {
		return fmt.Errorf("row counts differ: cold %d, warm %d", len(a), len(b))
	}
	for i := range a {
		ka, kb := a[i].Key(), b[i].Key()
		if ka != kb {
			return fmt.Errorf("row %d differs: cold %s, warm %s", i, ka, kb)
		}
	}
	return nil
}

// cacheReportJSON writes the metrics.json report with the cache section
// filled from the service's accounting (and mean cold/warm walls when the
// caller measured them).
func cacheReportJSON(w io.Writer, svc *cache.Service, tracer *obs.Tracer, coldNS, warmNS int64) error {
	st := svc.Stats()
	rep := obs.NewReport("cache-mix", tracer.Snapshot())
	rep.Cache = &obs.CacheReport{
		Lookups:       st.Lookups,
		FullHits:      st.FullHits,
		PartialHits:   st.PartialHits,
		Misses:        st.Misses,
		HitSegments:   st.HitSegments,
		CachedRows:    st.CachedRows,
		DeltaRows:     st.DeltaRows,
		SpanRequested: st.SpanRequested,
		SpanCovered:   st.SpanCovered,
		HitRatio:      st.HitRatio(),
		Insertions:    st.Insertions,
		Evictions:     st.Evictions,
		BytesInUse:    st.BytesInUse,
		BytesBudget:   st.BytesBudget,
		ColdNS:        coldNS,
		WarmNS:        warmNS,
	}
	if coldNS > 0 && warmNS > 0 {
		rep.Cache.Speedup = float64(coldNS) / float64(warmNS)
	}
	return rep.WriteJSON(w)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ijoind:", err)
	os.Exit(1)
}
