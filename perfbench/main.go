// Command perfbench is the repository's end-to-end benchmark. It generates
// a workload's inputs from a seed, writes them as text files, drives them
// through the program's public entry points for a fixed time, checks every
// answer against the core.Reference oracle, and prints one JSON result as
// the last line of standard output.
//
//	bash perfbench/run.sh --workload batch-coloc --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with no
// instrument attached. With --trace 1 the run measures the same phase twice,
// untraced and then traced, and the result holds the per-layer metrics:
// counts and times taken by wrappers placed around the program's layers
// from outside (a dfs.Store decorator, a core.Algorithm wrapper, spans
// around relation.LoadFile, query.Parse and the cache.Service calls), the
// engine's own mr.Metrics, runtime/metrics, each layer's self time and the
// tracing overhead. The traced run also writes a Chrome trace of its spans.
//
// The exit code is 0 when every answer matched the oracle, 1 when one did
// not (the result line is still printed), and 2 when the run could not be
// made at all (no result line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input and traffic seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if *trace == 1 && w.clients > 1 {
		fmt.Fprintf(stderr, "perfbench: %s has %d clients; the traced run needs one op in flight\n", w.name, w.clients)
		return 2
	}
	dir := filepath.Join(*workdir, w.name+"-seed"+strconv.FormatInt(*seed, 10))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	res, err := execute(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir, *workdir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute generates the inputs, runs the phases the mode asks for, and
// assembles the result line. Human-readable tables go to out first.
func execute(w benchWorkload, seed int64, timed time.Duration, traced bool, dir, workdir string, out io.Writer) (result, error) {
	d, err := w.generate(dir, seed)
	if err != nil {
		return result{}, fmt.Errorf("generate %s inputs: %w", w.name, err)
	}
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, seed, d.describe())
	if !traced {
		p, err := measure(w, d, timed, nil)
		if err != nil {
			return result{}, err
		}
		printEndToEnd(out, "untraced", w, p)
		return result{
			Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed,
			Metrics: endToEnd(p),
		}, nil
	}
	// The traced mode splits its time between an untraced phase and a
	// traced one over the same inputs, so the overhead compares like with
	// like inside one process.
	plain, err := measure(w, d, timed/2, nil)
	if err != nil {
		return result{}, err
	}
	printEndToEnd(out, "untraced", w, plain)
	rec := newRecorder()
	tp, err := measure(w, d, timed/2, rec)
	if err != nil {
		return result{}, err
	}
	printEndToEnd(out, "traced", w, tp)
	tracePath := filepath.Join(workdir, "trace-"+w.name+"-seed"+strconv.FormatInt(seed, 10)+".json")
	if err := writeChromeTrace(tracePath, rec); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "chrome trace: %s (%d spans, %d dropped)\n", tracePath, len(rec.spans()), rec.dropped.Load())
	ms := layerMetrics(rec, tp, plain, out)
	failed := plain.failed + tp.failed
	return result{
		Correct: failed == 0, Attempted: plain.attempted + tp.attempted, Failed: failed,
		Metrics: ms,
	}, nil
}
