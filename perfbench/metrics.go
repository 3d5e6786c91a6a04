package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit. The two tables below are the
// ones BENCHMARK.json declares; TestCatalogMatchesBenchmarkJSON keeps
// them in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports
// every one of them, each for its own operation (README.md maps them):
// a fit on fit_deep, a framed /assign on serve_bulk, and on
// ingest_serve the ingest stream (records_per_s) and the small /assign
// requests served beside it (op_p50_ms).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"records_per_s", "records/s"},
	{"op_p50_ms", "ms"},
	{"alloc_kb_per_op", "KB"},
	{"retained_heap_mb", "MB"},
}

// perLayer is what the traced run (-trace 1) reports: the calls into
// each layer, timed from outside the program, and counts the program
// already keeps. A layer a workload does not run reads 0.
var perLayer = []metricDef{
	// fit_deep
	{"diskio.scan_s", "s"},
	{"histogram.build_s", "s"},
	{"grid.build_ms", "ms"},
	{"mafia.levels_s", "s"},
	{"mafia.populate_s", "s"},
	{"mafia.populate_records_per_s", "records/s"},
	{"mafia.populate_passes", "count"},
	{"mafia.cdus", "count"},
	{"mafia.dense_units", "count"},
	{"mafia.dense_per_cdu", "ratio"},
	{"sp2.collectives", "count"},
	{"sp2.comm_bytes", "bytes"},
	{"sp2.comm_s", "s"},
	{"fit.serial_s", "s"},
	{"fit.speedup", "x"},
	// every workload, on the model it fits or serves
	{"modelio.save_ms", "ms"},
	{"modelio.load_ms", "ms"},
	{"assign.compile_ms", "ms"},
	// serve_bulk
	{"assign.kernel_records_per_s", "records/s"},
	{"daemon.bulk_overhead_ms", "ms"},
	{"daemon.queue_p50_ms", "ms"},
	{"client.assign_p99_ms", "ms"},
	// ingest_serve
	{"ingest.append_records_per_s", "records/s"},
	{"daemon.ingest_overhead_ms", "ms"},
	{"ingest.refit_s", "s"},
	{"daemon.refit_p50_s", "s"},
	{"daemon.small_overhead_us", "us"},
	{"daemon.healthz_p50_us", "us"},
	{"daemon.swaps", "count"},
	{"daemon.swap_p50_ms", "ms"},
	{"ingest.buffer_mb", "MB"},
	{"client.read_records_per_s", "records/s"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// quantile returns the nearest-rank q-quantile of xs (0 for none). It
// sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeIt runs fn reps times and returns the median duration in seconds.
func timeIt(reps int, fn func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}
