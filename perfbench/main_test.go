package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pmafia/internal/datagen"
	"pmafia/internal/mafia"
)

// TestMain lets a test re-run this binary as the benchmark command, to
// deliver a real signal to it.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_CHILD") == "1" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// leakWatch records what a run starts and checks that none of it
// outlives the run: listeners, goroutines and the work directory.
type leakWatch struct {
	t          *testing.T
	root       string
	goroutines int
	mu         sync.Mutex
	addrs      []string
}

func newLeakWatch(t *testing.T) *leakWatch {
	return &leakWatch{t: t, root: filepath.Join(t.TempDir(), "work"), goroutines: runtime.NumGoroutine()}
}

func (w *leakWatch) listen(addr string) {
	w.mu.Lock()
	w.addrs = append(w.addrs, addr)
	w.mu.Unlock()
}

func (w *leakWatch) check() {
	t := w.t
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, a := range w.addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			t.Errorf("daemon at %s still listening", a)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > w.goroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > w.goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines left, %d before the run:\n%s", n, w.goroutines, buf[:runtime.Stack(buf, true)])
	}
	if _, err := os.Stat(w.root); !os.IsNotExist(err) {
		ents, _ := os.ReadDir(w.root)
		t.Errorf("work directory %s left behind (%d entries, stat err %v)", w.root, len(ents), err)
	}
}

func smallOptions(w *leakWatch, workload string, trace int) options {
	return options{
		workload: workload, seed: 3, seconds: 0.2, trace: trace,
		workRoot: w.root, small: true, log: io.Discard, onListen: w.listen,
	}
}

// TestWorkloadsSmall runs every workload small, in both modes, and
// checks the result and that nothing is left running.
func TestWorkloadsSmall(t *testing.T) {
	for name := range workloads {
		for trace := 0; trace <= 1; trace++ {
			w := newLeakWatch(t)
			res, err := run(context.Background(), smallOptions(w, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s = %+v", name, trace, d.name, m)
				}
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			w.check()
		}
	}
}

// TestInterruptedRunLeavesNothing cancels each workload mid-run, as
// SIGINT does, and checks it stops with an error and cleans up.
func TestInterruptedRunLeavesNothing(t *testing.T) {
	for name := range workloads {
		w := newLeakWatch(t)
		o := smallOptions(w, name, 0)
		o.seconds = 30
		ctx, cancel := context.WithCancel(context.Background())
		listen := o.onListen
		o.onListen = func(addr string) {
			listen(addr)
			time.AfterFunc(50*time.Millisecond, cancel)
		}
		if name == "fit_deep" {
			time.AfterFunc(700*time.Millisecond, cancel)
		}
		t0 := time.Now()
		res, err := run(ctx, o)
		cancel()
		if err == nil {
			t.Errorf("%s: interrupted run returned a result %+v", name, res)
		}
		if d := time.Since(t0); d > 20*time.Second {
			t.Errorf("%s: interrupted run took %v to stop", name, d)
		}
		w.check()
	}
}

// TestSignalStopsRun sends SIGINT to the benchmark process in the middle
// of its window: it must exit non-zero without a result line and leave
// no work directory.
func TestSignalStopsRun(t *testing.T) {
	root := filepath.Join(t.TempDir(), "work")
	cmd := exec.Command(os.Args[0], "-workload", "ingest_serve", "-small", "-seconds", "60", "-workdir", root)
	cmd.Env = append(os.Environ(), "PERFBENCH_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if strings.HasPrefix(sc.Text(), "stream:") {
			time.Sleep(300 * time.Millisecond) // into the window
			cmd.Process.Signal(syscall.SIGINT)
		}
	}
	err = cmd.Wait()
	if err == nil {
		t.Fatalf("interrupted benchmark exited 0; output:\n%s", strings.Join(lines, "\n"))
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "{") {
			t.Errorf("interrupted benchmark printed a result: %s", l)
		}
	}
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Errorf("work directory %s left behind", root)
	}
}

// TestCheckersCatchWrongOutputs hands every checker an output with one
// deliberate fault.
func TestCheckersCatchWrongOutputs(t *testing.T) {
	m, truth, err := datagen.Generate(fitSpec(5, 20_000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mafia.Run(m, mafia.Config{})
	if err != nil {
		t.Fatal(err)
	}
	im, err := imageOf(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFit(im, res); err != nil {
		t.Fatalf("fit differs from itself: %v", err)
	}
	if err := checkTruth(truth, res); err != nil {
		t.Fatalf("truth not recovered by a correct fit: %v", err)
	}

	dropped := *res
	dropped.Clusters = res.Clusters[1:]
	if checkFit(im, &dropped) == nil {
		t.Error("checkFit missed a dropped cluster")
	}
	if checkTruth(truth, &dropped) == nil {
		t.Error("checkTruth missed a dropped cluster")
	}
	skewed := *res
	skewed.Levels = append([]mafia.LevelStats(nil), res.Levels...)
	skewed.Levels[1].Ndu++
	if checkFit(im, &skewed) == nil {
		t.Error("checkFit missed a changed dense-unit count")
	}

	want := oracleLabels(res, m.Values[:64*fitDims], fitDims)
	reply := make([]byte, 4*len(want))
	for i, l := range want {
		binary.LittleEndian.PutUint32(reply[4*i:], uint32(l))
	}
	if err := checkFrameLabels(want, reply); err != nil {
		t.Fatalf("correct labels rejected: %v", err)
	}
	binary.LittleEndian.PutUint32(reply[4*7:], uint32(want[7]+1))
	if checkFrameLabels(want, reply) == nil {
		t.Error("checkFrameLabels missed a flipped label")
	}
	if checkFrameLabels(want, reply[:len(reply)-4]) == nil {
		t.Error("checkFrameLabels missed a missing label")
	}

	flipped := append([]int32(nil), want...)
	flipped[3]++
	oracles := [][]int32{want, append([]int32(nil), want...)}
	if matchGeneration(want, oracles) != 0 {
		t.Error("matchGeneration rejected the first generation's labels")
	}
	if matchGeneration(flipped, oracles) >= 0 {
		t.Error("matchGeneration accepted a flipped label")
	}

	if err := checkGenerations([]uint64{1, 2, 3}); err != nil {
		t.Errorf("rising generations rejected: %v", err)
	}
	if checkGenerations([]uint64{1, 2, 4}) == nil {
		t.Error("checkGenerations missed a skipped generation")
	}
	if checkGenerations([]uint64{1, 1}) == nil {
		t.Error("checkGenerations missed a repeated generation")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric tables in step with
// the BENCHMARK.json at the repository root.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: %d in the catalog, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		for _, g := range got {
			if u := unitOf(defs, g.Name); u != g.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the catalog", kind, g.Name, g.Unit, u)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for _, wl := range b.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", wl.Name)
		}
	}
}
