package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"intervaljoin/internal/cache"
	"intervaljoin/internal/core"
	"intervaljoin/internal/mr"
	"intervaljoin/internal/obs"
)

// maxSpans bounds the recorder's span buffer; spans beyond it are counted
// as dropped and left out of the trace and the tables.
const maxSpans = 1 << 16

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one operation share its op id; parent is the index
// of the enclosing span. A dfs span covers one iterator's or writer's
// lifetime, and busy is the time spent inside its calls. A core.run span
// carries the run's own engine metrics and row count.
type span struct {
	name           string
	file           string
	op             int64
	parent         int32
	timed          bool
	start, end     time.Duration // since the recorder's epoch
	busy           time.Duration
	records, bytes int64
	m              *mr.Metrics
	rows           int
}

func (s *span) dur() time.Duration { return s.end - s.start }

func (s *span) isDFS() bool { return s.name == "dfs.read" || s.name == "dfs.write" }

// layer is the span name's prefix: "query.parse" belongs to query; the
// benchmark's own op, warm-up and set-up spans belong to bench.
func (s *span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return "bench"
}

// querySample is one service query's provenance, as the Answer reports it.
type querySample struct {
	span                  int // the cache.query span
	lat                   time.Duration
	fullHit               bool
	hitSegments           int
	cachedRows, deltaRows int64
	rows                  int
}

// recorder keeps the traced run's spans and samples in memory; they are
// written out when the run ends. A nil *recorder is the untraced run:
// every method is a no-op and every wrapper returns what it was given.
//
// The benchmark's client loop runs one op at a time when traced, so the
// innermost open benchmark-level span and the current op id are exact for
// every call made while it is open, including dfs calls the engine makes
// from its worker goroutines.
//
// The store and algorithm wrappers run inside the program's own locks
// (the service's run lock, the resident registry's lock), so the span
// path takes no lock: each span's slot in a buffer allocated up front is
// reserved with one atomic add and written only by the goroutine that
// owns the span. The buffer is read once every op has returned.
type recorder struct {
	epoch   time.Time
	cur     atomic.Int32 // innermost open benchmark-level span, -1 for none
	curOp   atomic.Int64
	nextOp  atomic.Int64
	timed   atomic.Bool
	buf     []span
	n       atomic.Int64 // span slots reserved
	dropped atomic.Int64
	s       *samples
}

// samples are what the benchmark's own code records between its calls
// into the program; only that code takes their lock.
type samples struct {
	mu        sync.Mutex
	queries   []querySample
	registers []time.Duration
	loads     []time.Duration // summed LoadFile time of each set-up
	parses    []time.Duration
	cache0    cache.Stats // service stats at the start of the timed phase
	cache1    cache.Stats // and at its end
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now(), buf: make([]span, maxSpans), s: &samples{}}
	r.cur.Store(-1)
	r.curOp.Store(-1)
	return r
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// spans returns the recorded spans; call it only once no op is running.
func (r *recorder) spans() []span { return r.buf[:min(r.n.Load(), int64(len(r.buf)))] }

// beginOp opens the top-level span of a new operation (a timed op, a
// warm-up query or a set-up) under a fresh op id.
func (r *recorder) beginOp(name string) int {
	if r == nil {
		return -1
	}
	r.curOp.Store(r.nextOp.Add(1))
	return r.begin(name)
}

// begin opens a benchmark-level span of the current op, nested in the
// innermost open span.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	i := r.push(span{name: name, op: r.curOp.Load(), parent: r.cur.Load(), timed: r.timed.Load(), start: r.now()})
	if i >= 0 {
		r.cur.Store(int32(i))
	}
	return i
}

// end closes a span opened by begin.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	s := &r.buf[i]
	s.end = r.now()
	s.busy = s.dur()
	r.cur.Store(s.parent)
}

// openLeaf opens a dfs span under the innermost open span without
// becoming the parent of later spans: the engine's workers open these
// concurrently.
func (r *recorder) openLeaf(name, file string) int {
	return r.push(span{name: name, file: file, op: r.curOp.Load(), parent: r.cur.Load(), timed: r.timed.Load(), start: r.now()})
}

func (r *recorder) closeLeaf(i int, busy time.Duration, records, bytes int64) {
	if i < 0 {
		return
	}
	s := &r.buf[i]
	s.end, s.busy, s.records, s.bytes = r.now(), busy, records, bytes
}

func (r *recorder) push(s span) int {
	i := r.n.Add(1) - 1
	if i >= int64(len(r.buf)) {
		r.dropped.Add(1)
		return -1
	}
	r.buf[i] = s
	return int(i)
}

// runSpans returns the closed core.run spans that carry a run's metrics.
func (r *recorder) runSpans() []*span {
	var out []*span
	spans := r.spans()
	for i := range spans {
		if s := &spans[i]; s.name == "core.run" && s.m != nil && s.end != 0 {
			out = append(out, s)
		}
	}
	return out
}

func (r *recorder) startTimed() {
	if r != nil {
		r.timed.Store(true)
	}
}

func (r *recorder) stopTimed() {
	if r != nil {
		r.timed.Store(false)
	}
}

// timedOn reports whether samples taken now belong to the timed phase.
func (r *recorder) timedOn() bool { return r != nil && r.timed.Load() }

// engineTracer is the obs.Tracer a traced run attaches per engine run so
// mr.Metrics carries TrueWalls; nil when untraced.
func (r *recorder) engineTracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return obs.New(obs.Options{})
}

func (r *recorder) addQuery(q querySample) {
	if !r.timedOn() {
		return
	}
	r.s.mu.Lock()
	r.s.queries = append(r.s.queries, q)
	r.s.mu.Unlock()
}

func (r *recorder) addParse(d time.Duration) {
	if !r.timedOn() {
		return
	}
	r.s.mu.Lock()
	r.s.parses = append(r.s.parses, d)
	r.s.mu.Unlock()
}

func (r *recorder) addRegister(d time.Duration) {
	if r == nil {
		return
	}
	r.s.mu.Lock()
	r.s.registers = append(r.s.registers, d)
	r.s.mu.Unlock()
}

func (r *recorder) addLoad(d time.Duration) {
	if r == nil {
		return
	}
	r.s.mu.Lock()
	r.s.loads = append(r.s.loads, d)
	r.s.mu.Unlock()
}

// cacheStats records the service's accounting at the edges of the timed
// phase; first marks the start.
func (r *recorder) cacheStats(st cache.Stats, first bool) {
	if r == nil {
		return
	}
	r.s.mu.Lock()
	if first {
		r.s.cache0 = st
	} else {
		r.s.cache1 = st
	}
	r.s.mu.Unlock()
}

// algorithm wraps a to record a core.run span and the run's own metrics;
// it returns a itself when untraced.
func (r *recorder) algorithm(a core.Algorithm) core.Algorithm {
	if r == nil {
		return a
	}
	return &tracedAlgorithm{inner: a, rec: r}
}

// tracedAlgorithm is the core.Algorithm wrapper. It returns the wrapped
// Result unchanged. Each run's mr.Metrics is read here rather than from
// cache.Answer.Engine, because Metrics.Merge drops TrueWalls.
type tracedAlgorithm struct {
	inner core.Algorithm
	rec   *recorder
}

func (a *tracedAlgorithm) Name() string { return a.inner.Name() }

func (a *tracedAlgorithm) Run(ctx *core.Context) (*core.Result, error) {
	sp := a.rec.begin("core.run")
	res, err := a.inner.Run(ctx)
	a.rec.end(sp)
	if sp >= 0 && err == nil && res != nil {
		a.rec.buf[sp].m, a.rec.buf[sp].rows = res.Metrics, len(res.Tuples)
	}
	return res, err
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format, loadable in Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes every recorded span. Benchmark-level spans nest
// on thread 0; dfs spans, which the engine's workers hold open
// concurrently, are packed onto the first thread free at their start.
func writeChromeTrace(path string, r *recorder) error {
	spans := r.spans()
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return int(spans[a].start - spans[b].start) })
	var laneEnd []time.Duration
	events := make([]chromeEvent, 0, len(spans))
	for _, i := range order {
		s := &spans[i]
		if s.end == 0 {
			continue // never closed: no complete event to draw
		}
		tid := 0
		args := map[string]any{"op": s.op, "timed": s.timed}
		if s.parent >= 0 {
			args["parent"] = spans[s.parent].name
		}
		if s.isDFS() {
			tid = -1
			for l, e := range laneEnd {
				if e <= s.start {
					tid = l
					break
				}
			}
			if tid < 0 {
				tid = len(laneEnd)
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[tid] = s.end
			tid++
			args["file"] = s.file
			args["records"] = s.records
			args["bytes"] = s.bytes
			args["busy_us"] = float64(s.busy) / 1e3
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: tid, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
