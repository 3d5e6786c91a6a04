// Command perfbench is the repository benchmark. One invocation runs
// one named workload against the pmafia packages for a fixed wall-clock
// window, checks every output against an independent computation, and
// prints as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1
// they are the per-layer metrics, timed from outside around the calls
// into each layer. See README.md for the workloads, the metric table and
// how to run it.
//
//	go run . -workload fit_deep -seed 1 -seconds 15 -trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain parses the flags, runs one workload and prints its result.
// SIGINT and SIGTERM cancel the run: the workload stops at its next
// operation boundary, its daemon shuts down and its work directory is
// removed before the process exits with a non-zero code and no result.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	fs.StringVar(&o.workRoot, "workdir", ".bench_work", "directory the run's work directory is created in")
	fs.BoolVar(&o.small, "small", false, "shrink every input to self-test size")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d (want 0 or 1)\n", o.trace)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds %v must be positive\n", o.seconds)
		return 2
	}
	o.log = stdout

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	workRoot string
	small    bool
	log      io.Writer
	// onListen, when non-nil, is told the address of every daemon the
	// run starts (the self-test checks none is left listening).
	onListen func(addr string)
}

// result is the JSON line the benchmark ends with.
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

// env is what a workload gets: its options, a private work directory
// that run removes afterwards, and the tally it fills in.
type env struct {
	options
	ctx   context.Context
	dir   string
	cores int
	out   *outcome
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// outcome is what a workload measured. A failed operation (an error, a
// non-2xx response, or an output that disagrees with its oracle) is
// counted in failed; a wrong output also makes the run incorrect.
type outcome struct {
	attempted, failed int
	wrong             int
	notes             []string // the first few failures, for the log
	e2e               map[string]float64
	layers            map[string]float64
}

// fail records one failed operation; wrong marks an output that
// disagrees with its oracle, as opposed to an error or non-2xx reply.
func (o *outcome) fail(wrong bool, format string, args ...any) {
	o.failed++
	if wrong {
		o.wrong++
	}
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(e *env) error

var workloads = map[string]workloadFunc{
	"fit_deep":     fitDeep,
	"serve_bulk":   serveBulk,
	"ingest_serve": ingestServe,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// run executes one workload in a fresh work directory and assembles its
// result. The work directory is removed on every path out.
func run(ctx context.Context, o options) (*result, error) {
	cores := runtime.NumCPU()
	runtime.GOMAXPROCS(cores)
	if err := os.MkdirAll(o.workRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workRoot, "run-*")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(dir)
		os.Remove(o.workRoot) // only succeeds once no other run uses it
	}()
	abs, _ := filepath.Abs(dir)
	e := &env{options: o, ctx: ctx, dir: dir, cores: cores, out: &outcome{
		e2e:    map[string]float64{},
		layers: map[string]float64{},
	}}
	e.logf("workload: %s  seed: %d  seconds: %g  trace: %d", o.workload, o.seed, o.seconds, o.trace)
	e.logf("gomaxprocs: %d", cores)
	e.logf("workdir: %s (ram-backed: %v)", abs, ramBacked(dir))

	err = workloads[o.workload](e)
	out := e.out
	for _, n := range out.notes {
		e.logf("FAILED: %s", n)
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("interrupted: %w", ctx.Err())
	}
	if err != nil {
		return nil, err
	}
	if o.trace == 1 {
		e.logf("end-to-end figures of this traced run: %v", out.e2e)
	}
	if out.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	res := &result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace == 0 {
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("workload %s did not measure %s", o.workload, m.name)
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	} else {
		// A layer the workload does not run reads 0.
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: out.layers[m.name], Unit: m.unit}
		}
		for name := range out.layers {
			if unitOf(perLayer, name) == "" {
				return nil, fmt.Errorf("workload %s measured undeclared layer metric %s", o.workload, name)
			}
		}
	}
	return res, nil
}

// ramBacked reports whether dir lives on a tmpfs.
func ramBacked(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	const tmpfsMagic = 0x01021994
	return st.Type == tmpfsMagic
}
