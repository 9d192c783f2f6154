package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a phase sets the workload up; setup_s is the
// median, and the state of the last set-up is the one measured. A batch
// set-up takes a few milliseconds and the first few run slower, so the
// median needs many.
const setupReps = 25

// minOps keeps a median defined when the timed phase is shorter than one
// operation.
const minOps = 3

// A runner runs one workload's operations against the program. It records
// every answer it gets so verify can check them after the timed phase.
type runner interface {
	// describe summarises the generated inputs in one line.
	describe() string
	// setup loads the inputs from their text files and builds the program
	// state, replacing any earlier state. Spans go to rec (nil: untraced).
	setup(rec *recorder) error
	// warm runs untimed operations so caches fill before timing, and
	// returns how many it ran.
	warm(rec *recorder) (int, error)
	// op runs timed operation i and returns the time spent inside the
	// program; checking work the runner does afterwards is not included.
	op(i int, rec *recorder) (opStat, error)
	// verify checks every recorded answer against the oracle and returns
	// the number that differ. It resets the record.
	verify(rec *recorder) (mismatched int, err error)
}

type opStat struct {
	dur   time.Duration
	write bool // a write (Register) rather than a query or join
}

// phase is what one measured phase of a run saw.
type phase struct {
	tail      float64 // the percentile op_tail_ms reports
	setups    []time.Duration
	queryLat  []time.Duration // query ops, or one join Run per batch op
	writeLat  []time.Duration
	opsPerS   float64       // each client's ops over its time inside them, summed over clients
	ops       int           // timed ops completed
	attempted int           // warm and timed ops, all checked
	failed    int           // ops that errored or differed from the oracle
	rssMB     float64       // peak RSS at the end of the timed phase
	rt0, rt1  runtimeSample // runtime/metrics around the timed phase
	firstErr  error
}

// measure sets the workload up, warms it, runs ops for the timed duration
// with the workload's number of closed-loop clients, reads the peak RSS,
// and only then runs the oracle.
func measure(w benchWorkload, d runner, timed time.Duration, rec *recorder) (*phase, error) {
	p := &phase{tail: w.tail}
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts from the same heap, not the last one's garbage
		sp := rec.beginOp("setup")
		start := time.Now()
		if err := d.setup(rec); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, time.Since(start))
		rec.end(sp)
	}
	warmed, err := d.warm(rec)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	p.attempted = warmed
	rec.startTimed()

	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	p.rt0 = readRuntime()
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops int
			var busy time.Duration
			for {
				i := int(next.Add(1) - 1)
				if time.Since(start) >= timed && i >= minOps {
					break
				}
				sp := rec.beginOp("op")
				st, err := d.op(i, rec)
				rec.end(sp)
				ops++
				busy += st.dur
				mu.Lock()
				p.ops++
				switch {
				case err != nil:
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				case st.write:
					p.writeLat = append(p.writeLat, st.dur)
				default:
					p.queryLat = append(p.queryLat, st.dur)
				}
				mu.Unlock()
			}
			if busy > 0 {
				mu.Lock()
				p.opsPerS += float64(ops) / busy.Seconds()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.rt1 = readRuntime()
	p.rssMB = peakRSSMB()
	rec.stopTimed()
	p.attempted += p.ops

	bad, err := d.verify(rec)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	p.failed += bad
	return p, nil
}

// quantile interpolates linearly between order statistics (the same rule
// as Python's statistics.quantiles with method "inclusive").
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd is the --trace 0 metric set.
func endToEnd(p *phase) map[string]metric {
	return map[string]metric{
		"setup_s":     {quantile(p.setups, 0.5).Seconds(), "s"},
		"op_p50_ms":   {ms(quantile(p.queryLat, 0.5)), "ms"},
		"op_tail_ms":  {ms(quantile(p.queryLat, p.tail)), "ms"},
		"ops_per_s":   {p.opsPerS, "ops/s"},
		"peak_rss_mb": {p.rssMB, "MB"},
	}
}

func printEndToEnd(w io.Writer, label string, wl benchWorkload, p *phase) {
	failRatio := float64(p.failed) / float64(max(p.attempted, 1))
	fmt.Fprintf(w, "%s phase: %d timed ops (%d query/join, %d write), %d attempted with warm-up, %d failed\n",
		label, p.ops, len(p.queryLat), len(p.writeLat), p.attempted, p.failed)
	if p.firstErr != nil {
		fmt.Fprintf(w, "  first op error: %v\n", p.firstErr)
	}
	m := endToEnd(p)
	for _, k := range []string{"setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "peak_rss_mb"} {
		fmt.Fprintf(w, "  %-12s %12.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	n := len(p.queryLat)
	fmt.Fprintf(w, "  (setup_s: median of %d set-ups; op_p50_ms and op_tail_ms (p%g, %d beyond it) over %d query/join ops)\n",
		len(p.setups), p.tail*100, int(float64(n)*(1-p.tail)), n)
	// The same figures under the names a batch user and a service user
	// know them by.
	if wl.service {
		fmt.Fprintf(w, "  query_p50_ms %.4f ms, query_p99_ms %.4f ms, fail_ratio %.4f ratio\n",
			ms(quantile(p.queryLat, 0.5)), ms(quantile(p.queryLat, 0.99)), failRatio)
	} else {
		fmt.Fprintf(w, "  join_s %.4f s, fail_ratio %.4f ratio\n", quantile(p.queryLat, 0.5).Seconds(), failRatio)
	}
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample holds the runtime/metrics the goruntime layer reports.
type runtimeSample struct {
	allocBytes, gcCycles, heapLive uint64
	gcCPU, totalCPU                float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: u(0), gcCycles: u(1), heapLive: u(2), gcCPU: f(3), totalCPU: f(4)}
}
