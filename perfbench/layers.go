package main

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// layerEntry is one per-layer metric; base states what a ratio or
// per-op figure was computed from.
type layerEntry struct {
	name  string
	value float64
	unit  string
	base  string
}

const mib = 1 << 20

// layerMetrics computes the --trace 1 metric set from the traced phase's
// recorder, prints it as a table with each layer's self time and the
// tracing overhead, and returns it for the result line.
func layerMetrics(rec *recorder, traced, plain *phase, out io.Writer) map[string]metric {
	rec.s.mu.Lock()
	defer rec.s.mu.Unlock()
	spans := rec.spans()
	ops := float64(max(traced.ops, 1))
	perOp := fmt.Sprintf("per op, over %d timed ops", traced.ops)
	var es []layerEntry
	add := func(name string, v float64, unit, base string) {
		es = append(es, layerEntry{name, v, unit, base})
	}

	// relation and query: the calls around relation.LoadFile and query.Parse.
	add("relation.load_s", quantile(rec.s.loads, 0.5).Seconds(), "s", fmt.Sprintf("median over %d set-ups, all files of one set-up", len(rec.s.loads)))
	add("query.parse_us", float64(quantile(rec.s.parses, 0.5))/1e3, "us", fmt.Sprintf("median over %d parses", len(rec.s.parses)))

	// dfs: the store decorator's spans.
	var rRec, rBytes, wRec, wBytes, created int64
	var rBusy, wBusy time.Duration
	for i := range spans {
		s := &spans[i]
		if !s.timed || !s.isDFS() {
			continue
		}
		if s.name == "dfs.read" {
			rRec, rBytes, rBusy = rRec+s.records, rBytes+s.bytes, rBusy+s.busy
		} else {
			wRec, wBytes, wBusy = wRec+s.records, wBytes+s.bytes, wBusy+s.busy
			created++
		}
	}
	add("dfs.read_records_per_op", float64(rRec)/ops, "count", perOp)
	add("dfs.read_bytes_per_op", float64(rBytes)/ops, "bytes", perOp)
	add("dfs.read_s_per_op", rBusy.Seconds()/ops, "s", perOp+", time inside Open and Next")
	add("dfs.write_records_per_op", float64(wRec)/ops, "count", perOp)
	add("dfs.write_bytes_per_op", float64(wBytes)/ops, "bytes", perOp)
	add("dfs.write_s_per_op", wBusy.Seconds()/ops, "s", perOp+", time inside Create, Write and Close")
	add("dfs.files_created_per_op", float64(created)/ops, "count", perOp)

	// mr and core: the engine metrics of each run the Algorithm wrapper saw.
	var runs []*span
	for _, r := range rec.runSpans() {
		if r.timed {
			runs = append(runs, r)
		}
	}
	var in, filtered, logical, physical, physBytes, streamed, output, retries, spilled, rows int64
	var feed, mapW, reduceW, outW, lpt, maxRed time.Duration
	var cleanup int
	walls := make([]time.Duration, 0, len(runs))
	imbalance := make([]float64, 0, len(runs))
	for _, r := range runs {
		m := r.m
		in += m.MapInputRecords
		filtered += m.FilteredRecords
		logical += m.IntermediatePairs
		physical += m.PhysicalPairs
		physBytes += m.PhysicalBytes
		streamed += m.StreamedPairs
		output += m.OutputRecords
		retries += m.TaskRetries
		spilled += m.SpilledPairs
		cleanup += m.CleanupFailures
		feed += m.FeedWall
		mapW += m.MapWall
		reduceW += m.ReduceWall
		outW += m.TrueWalls.Output
		lpt += m.MakespanLPT
		maxRed += m.MaxReducerTime
		rows += int64(r.rows)
		walls = append(walls, r.dur())
		imbalance = append(imbalance, m.LoadImbalance())
	}
	add("mr.map_input_records_per_op", float64(in)/ops, "count", perOp)
	add("mr.filtered_records_per_op", float64(filtered)/ops, "count", perOp+", dropped by Input.Where before map")
	add("mr.feed_keep_ratio", ratio(in, in+filtered), "ratio", fmt.Sprintf("%d kept of %d read", in, in+filtered))
	add("mr.pairs_logical_per_op", float64(logical)/ops, "count", perOp)
	add("mr.pairs_physical_per_op", float64(physical)/ops, "count", perOp)
	add("mr.shuffle_bytes_physical_per_op", float64(physBytes)/ops, "bytes", perOp)
	add("mr.replication_factor", ratio(logical, physical), "ratio", fmt.Sprintf("%d logical over %d physical pairs", logical, physical))
	add("mr.streamed_pairs_per_op", float64(streamed)/ops, "count", perOp)
	add("mr.output_records_per_op", float64(output)/ops, "count", perOp)
	add("mr.feed_s", feed.Seconds()/ops, "s", perOp+", FeedWall summed over the op's cycles")
	add("mr.map_s", mapW.Seconds()/ops, "s", perOp+", MapWall summed over cycles")
	add("mr.reduce_s", reduceW.Seconds()/ops, "s", perOp+", ReduceWall summed over cycles")
	add("mr.output_s", outW.Seconds()/ops, "s", perOp+", TrueWalls.Output")
	add("mr.reduce_makespan_lpt_s", lpt.Seconds()/ops, "s", perOp)
	add("mr.max_reducer_s", maxRed.Seconds()/ops, "s", perOp+", straggler task summed over cycles")
	add("mr.pair_imbalance", median(imbalance), "ratio", fmt.Sprintf("median over %d runs of max/mean reducer pairs", len(runs)))
	add("mr.task_retries", float64(retries), "count", "total in the timed phase")
	add("mr.spilled_pairs", float64(spilled), "count", "total in the timed phase")
	add("mr.cleanup_failures", float64(cleanup), "count", "total in the timed phase")
	add("core.run_s", quantile(walls, 0.5).Seconds(), "s", fmt.Sprintf("median Algorithm.Run wall over %d runs", len(runs)))
	add("core.runs_per_op", float64(len(runs))/ops, "count", perOp)
	add("core.rows_per_pair", ratio(rows, logical), "ratio", fmt.Sprintf("%d result rows over %d logical pairs", rows, logical))

	// cache: the service's answers, its Stats, and the spans around it.
	es = append(es, cacheEntries(rec, spans)...)

	// goruntime: runtime/metrics around the timed phase.
	rt0, rt1 := traced.rt0, traced.rt1
	add("goruntime.alloc_mb_per_op", float64(rt1.allocBytes-rt0.allocBytes)/mib/ops, "MB", perOp)
	add("goruntime.gc_cycles_per_op", float64(rt1.gcCycles-rt0.gcCycles)/ops, "count", perOp)
	gcCPU, totalCPU := rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU
	add("goruntime.gc_cpu_fraction", fratio(gcCPU, totalCPU), "ratio", fmt.Sprintf("%.3f s GC CPU of %.3f s total CPU (runtime estimate)", gcCPU, totalCPU))
	add("goruntime.heap_live_mb", float64(rt1.heapLive)/mib, "MB", "at the end of the timed phase")

	// Self time per layer and the tracing overhead.
	opSelf, setupSelf := selfTimes(spans)
	for _, l := range []string{"bench", "query", "cache", "core", "dfs"} {
		add("self."+l+"_ms_per_op", ms(opSelf[l])/ops, "ms", perOp)
	}
	setups := float64(max(len(traced.setups), 1))
	for _, l := range []string{"bench", "relation", "cache", "dfs"} {
		add("self."+l+"_ms_per_setup", ms(setupSelf[l])/setups, "ms", fmt.Sprintf("per set-up, over %d", len(traced.setups)))
	}
	te, pe := endToEnd(traced), endToEnd(plain)
	for _, k := range []string{"setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s"} {
		add("trace.overhead_"+k, te[k].Value-pe[k].Value, te[k].Unit,
			fmt.Sprintf("traced %.4f minus untraced %.4f", te[k].Value, pe[k].Value))
	}
	add("trace.spans", float64(len(spans)), "count", "recorded in the traced phase")
	add("trace.spans_dropped", float64(rec.dropped.Load()), "count", fmt.Sprintf("beyond the %d-span buffer", maxSpans))

	fmt.Fprintln(out, "per-layer metrics (traced phase):")
	res := make(map[string]metric, len(es))
	for _, e := range es {
		fmt.Fprintf(out, "  %-36s %16.6f %-6s %s\n", e.name, e.value, e.unit, e.base)
		res[e.name] = metric{Value: e.value, Unit: e.unit}
	}
	return res
}

func cacheEntries(rec *recorder, spans []span) []layerEntry {
	qs := rec.s.queries
	n := float64(max(len(qs), 1))
	perQ := fmt.Sprintf("per query, over %d timed queries", len(qs))
	// The first core.run under each cache.query span marks where the engine
	// started; the core.run durations under it are the engine's share.
	firstRun := map[int]time.Duration{}
	engine := map[int]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if s.name != "core.run" || s.parent < 0 || spans[s.parent].name != "cache.query" {
			continue
		}
		p := int(s.parent)
		if f, ok := firstRun[p]; !ok || s.start < f {
			firstRun[p] = s.start
		}
		engine[p] += s.dur()
	}
	var full, segs int
	var deltaRows, fullCached, fullRows int64
	var fullLat, deltaLat, preEngine, self []time.Duration
	for _, q := range qs {
		segs += q.hitSegments
		deltaRows += q.deltaRows
		if q.fullHit {
			full++
			fullCached += q.cachedRows
			fullRows += int64(q.rows)
			fullLat = append(fullLat, q.lat)
		} else {
			deltaLat = append(deltaLat, q.lat)
		}
		if q.span < 0 {
			continue
		}
		sp := &spans[q.span]
		if f, ok := firstRun[q.span]; ok {
			preEngine = append(preEngine, f-sp.start)
		}
		self = append(self, sp.dur()-engine[q.span])
	}
	c0, c1 := rec.s.cache0, rec.s.cache1
	covered, requested := c1.SpanCovered-c0.SpanCovered, c1.SpanRequested-c0.SpanRequested
	return []layerEntry{
		{"cache.span_hit_ratio", ratio(covered, requested), "ratio", fmt.Sprintf("%d window points covered of %d requested", covered, requested)},
		{"cache.full_hit_ratio", ratio(int64(full), int64(len(qs))), "ratio", fmt.Sprintf("%d full hits of %d queries", full, len(qs))},
		{"cache.hit_segments_per_query", float64(segs) / n, "count", perQ},
		{"cache.delta_rows_per_query", float64(deltaRows) / n, "count", perQ},
		{"cache.rows_kept_per_cached_row", ratio(fullRows, fullCached), "ratio", fmt.Sprintf("%d rows returned of %d cached rows merged, full hits only", fullRows, fullCached)},
		{"cache.evictions", float64(c1.Evictions - c0.Evictions), "count", "total in the timed phase"},
		{"cache.bytes_in_use_mb", float64(c1.BytesInUse) / mib, "MB", fmt.Sprintf("at the end of the timed phase, budget %d MB", c1.BytesBudget/mib)},
		{"cache.full_hit_p50_ms", ms(quantile(fullLat, 0.5)), "ms", fmt.Sprintf("median over %d full-hit queries", len(fullLat))},
		{"cache.delta_query_p50_ms", ms(quantile(deltaLat, 0.5)), "ms", fmt.Sprintf("median over %d queries that ran delta joins", len(deltaLat))},
		{"cache.delta_query_p90_ms", ms(quantile(deltaLat, 0.9)), "ms", fmt.Sprintf("p90 over %d queries that ran delta joins", len(deltaLat))},
		{"cache.pre_engine_ms", ms(quantile(preEngine, 0.5)), "ms", fmt.Sprintf("median over %d delta queries, Query entry to first Algorithm.Run", len(preEngine))},
		{"cache.self_ms", ms(quantile(self, 0.5)), "ms", fmt.Sprintf("median over %d queries of Query minus its Algorithm.Run walls", len(self))},
		{"cache.register_ms", ms(quantile(rec.s.registers, 0.5)), "ms", fmt.Sprintf("median over %d Register calls, set-ups included", len(rec.s.registers))},
	}
}

// selfTimes sums each layer's self time over the spans of timed ops and
// of set-ups. A span's self time is its duration minus what its children
// cover: the union of its benchmark-level children's intervals plus the
// time its dfs children spent inside their calls. A dfs span's own self
// time is that busy time, not its lifetime, because an iterator stays open
// while its consumer does the map work.
func selfTimes(spans []span) (timedOps, setups map[string]time.Duration) {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	// A span belongs to a set-up when its top-level ancestor is one.
	top := make([]int, len(spans))
	for i := range spans {
		top[i] = i
		if p := spans[i].parent; p >= 0 {
			top[i] = top[p] // parents precede children in the slice
		}
	}
	timedOps, setups = map[string]time.Duration{}, map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		var dst map[string]time.Duration
		switch {
		case spans[top[i]].name == "setup":
			dst = setups
		case s.timed && spans[top[i]].name == "op":
			dst = timedOps
		default:
			continue
		}
		if s.isDFS() {
			dst["dfs"] += s.busy
			continue
		}
		var covered time.Duration
		var ivs [][2]time.Duration
		for _, c := range children[i] {
			cs := &spans[c]
			if cs.end == 0 {
				continue
			}
			if cs.isDFS() {
				covered += cs.busy
			} else {
				ivs = append(ivs, [2]time.Duration{cs.start, cs.end})
			}
		}
		covered += unionLength(ivs)
		dst[s.layer()] += max(0, s.dur()-covered)
	}
	return timedOps, setups
}

// unionLength is the total length covered by intervals given in start
// order (benchmark-level siblings never overlap, but may touch).
func unionLength(ivs [][2]time.Duration) time.Duration {
	var total, curS, curE time.Duration
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curS, curE, open = iv[0], iv[1], true
		case iv[0] > curE:
			total += curE - curS
			curS, curE = iv[0], iv[1]
		case iv[1] > curE:
			curE = iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func fratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
