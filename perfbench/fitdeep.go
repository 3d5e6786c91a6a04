package main

// fit_deep: repeated out-of-core pMAFIA fits of one on-disk .pmaf file,
// ~10^6 records x 20 dims with 10% noise and clusters embedded in a 6-
// and a 7-dimensional subspace. The level loop runs seven populate
// passes over the disk-resident records, which is where fit time goes;
// no serving layer runs.

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"pmafia/internal/assign"
	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/diskio"
	"pmafia/internal/grid"
	"pmafia/internal/histogram"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
	"pmafia/internal/sp2"
)

const (
	fitDims = 20
	// fitSetupRounds is how often fit_deep writes and opens its file;
	// setup_s is the median.
	fitSetupRounds = 5
)

// fitSpec draws the fit_deep data set from seed: two clusters of width
// 20 (of the [0,100) attribute range) in disjoint 6- and 7-dimensional
// subspaces, kept off the domain edges so every seed yields the same
// lattice shape and so the same work.
func fitSpec(seed uint64, records int) datagen.Spec {
	r := rand.New(rand.NewPCG(seed, 0x6669745f64656570))
	perm := r.Perm(fitDims)
	box := func(dims []int) datagen.Cluster {
		dims = slices.Clone(dims)
		slices.Sort(dims)
		ext := make([]dataset.Range, len(dims))
		for i := range ext {
			lo := 10 + 60*r.Float64()
			ext[i] = dataset.Range{Lo: lo, Hi: lo + 20}
		}
		return datagen.UniformBox(dims, ext, 0)
	}
	return datagen.Spec{
		Dims:     fitDims,
		Records:  records,
		Seed:     seed,
		Clusters: []datagen.Cluster{box(perm[:6]), box(perm[6:13])},
	}
}

// rangeShard is one rank's contiguous share of a file.
type rangeShard struct {
	f      *diskio.File
	lo, hi int
}

func (s *rangeShard) Dims() int       { return s.f.Dims() }
func (s *rangeShard) NumRecords() int { return s.hi - s.lo }
func (s *rangeShard) Scan(chunk int) dataset.Scanner {
	return s.f.ScanRange(s.lo, s.hi, chunk)
}

// fileShards splits f into p contiguous shards, N/p records per rank.
func fileShards(f *diskio.File, p int) []dataset.Source {
	out := make([]dataset.Source, p)
	for r := range out {
		lo, hi := diskio.ShareBounds(f.NumRecords(), r, p)
		out[r] = &rangeShard{f: f, lo: lo, hi: hi}
	}
	return out
}

// onShards runs fn on every shard concurrently, one goroutine per rank,
// and returns the first error.
func onShards(shards []dataset.Source, fn func(r int, s dataset.Source) error) error {
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for r, s := range shards {
		wg.Add(1)
		go func(r int, s dataset.Source) {
			defer wg.Done()
			errs[r] = fn(r, s)
		}(r, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func fitDeep(e *env) error {
	records := 900_000
	if e.small {
		records = 20_000
	}
	m, truth, err := datagen.Generate(fitSpec(e.seed, records))
	if err != nil {
		return err
	}
	n := m.NumRecords()
	path := filepath.Join(e.dir, "fit.pmaf")

	// Set-up: write the records into the on-disk format and open it.
	var setups []float64
	for i := 0; i < fitSetupRounds; i++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		if err := diskio.WriteSource(path, m); err != nil {
			return err
		}
		if _, err := diskio.Open(path); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m = nil // only the file holds the records from here on
	serialF, err := diskio.Open(path)
	if err != nil {
		return err
	}
	f, err := diskio.Open(path)
	if err != nil {
		return err
	}
	f.SetPrefetch(true)
	domains := f.Domains()

	// Reference: what mafia.Run computes (domains from a data pass, one
	// rank, plain scans), outside the window. RunParallel with one rank
	// is that call, made cancellable.
	cfg := mafia.Config{}
	t0 := time.Now()
	ref, err := mafia.RunParallel([]dataset.Source{serialF}, nil, cfg, sp2.Config{Procs: 1, Mode: sp2.Real, Ctx: e.ctx})
	if err != nil {
		return fmt.Errorf("reference fit: %w", err)
	}
	e.logf("reference: serial fit of %d x %d records in %.3fs, %d clusters, %d levels",
		n, fitDims, time.Since(t0).Seconds(), len(ref.Clusters), len(ref.Levels))
	refIm, err := imageOf(ref)
	if err != nil {
		return err
	}
	if err := checkTruth(truth, ref); err != nil {
		e.out.fail(true, "reference fit: %v", err)
	}

	p := e.cores
	shards := fileShards(f, p)
	fit := func(c mafia.Config, sh []dataset.Source) (*mafia.Result, error) {
		return mafia.RunParallel(sh, domains, c, sp2.Config{Procs: len(sh), Mode: sp2.Real, Ctx: e.ctx})
	}
	var secs, allocs, pops []float64
	var last *mafia.Result
	start := time.Now()
	for e.out.attempted == 0 || time.Since(start).Seconds() < e.seconds {
		a0 := totalAlloc()
		t0 := time.Now()
		res, err := fit(cfg, shards)
		dt := time.Since(t0).Seconds()
		a1 := totalAlloc()
		if e.ctx.Err() != nil {
			return e.ctx.Err()
		}
		e.out.attempted++
		if err != nil {
			e.out.fail(false, "fit: %v", err)
			continue
		}
		if err := checkFit(refIm, res); err != nil {
			e.out.fail(true, "fit %d: %v", e.out.attempted, err)
			continue
		}
		if err := checkTruth(truth, res); err != nil {
			e.out.fail(true, "fit %d: %v", e.out.attempted, err)
			continue
		}
		secs = append(secs, dt)
		allocs = append(allocs, float64(a1-a0))
		pop := 0.0
		for _, l := range res.Levels {
			pop += l.PopulateSeconds
		}
		pops = append(pops, pop)
		last = res
	}
	if len(secs) == 0 {
		return fmt.Errorf("no fit succeeded (%d attempted)", e.out.attempted)
	}
	fitS := median(secs)
	e.logf("window: %d fits at p=%d, median %.3fs", len(secs), p, fitS)

	e.out.e2e["setup_s"] = median(setups)
	e.out.e2e["records_per_s"] = float64(n) / fitS
	e.out.e2e["op_p50_ms"] = fitS * 1e3
	e.out.e2e["alloc_kb_per_op"] = median(allocs) / 1024
	e.out.e2e["retained_heap_mb"] = heapMB()
	if e.trace == 0 {
		return nil
	}
	return fitLayers(e, ref, last, refIm, f, shards, domains, n, fitS, median(pops), fit)
}

// fitLayers times each fit layer on its own, on the same file and
// shards, and reads the counts the fit already reports.
func fitLayers(e *env, ref, last *mafia.Result, refIm *fitImage, f *diskio.File, shards []dataset.Source,
	domains []dataset.Range, n int, fitS, popS float64,
	fit func(mafia.Config, []dataset.Source) (*mafia.Result, error)) error {
	L := e.out.layers
	cfg := mafia.Config{}
	if err := cfg.Validate(fitDims); err != nil {
		return err
	}
	chunk := cfg.ChunkRecords

	var passes, cdus, dense int
	for _, l := range ref.Levels[1:] { // level 1 is read off the histogram
		if l.Ncdu > 0 {
			passes++
		}
		cdus += l.Ncdu
		dense += l.Ndu
	}
	L["mafia.populate_passes"] = float64(passes)
	L["mafia.cdus"] = float64(cdus)
	L["mafia.dense_units"] = float64(dense)
	if cdus > 0 {
		L["mafia.dense_per_cdu"] = float64(dense) / float64(cdus)
	}
	L["mafia.populate_s"] = popS
	if popS > 0 {
		L["mafia.populate_records_per_s"] = float64(passes) * float64(n) / popS
	}
	L["sp2.collectives"] = float64(last.Report.Collectives)
	L["sp2.comm_bytes"] = float64(last.Report.BytesMoved)
	L["sp2.comm_s"] = last.Report.CommSeconds

	var err error
	L["diskio.scan_s"], err = timeIt(3, func() error {
		return onShards(shards, func(_ int, s dataset.Source) error {
			sc := s.Scan(chunk)
			defer sc.Close()
			for {
				if _, k := sc.Next(); k == 0 {
					return sc.Err()
				}
			}
		})
	})
	if err != nil {
		return err
	}
	units := min(1000, max(50, n/10)) // the engine's fine-unit rule
	var h *histogram.Hist
	L["histogram.build_s"], err = timeIt(3, func() error {
		parts := make([]*histogram.Hist, len(shards))
		if err := onShards(shards, func(r int, s dataset.Source) error {
			parts[r] = histogram.New(domains, units)
			return parts[r].AddSource(s, chunk)
		}); err != nil {
			return err
		}
		flat := parts[0].Flatten()
		for _, ph := range parts[1:] {
			for i, v := range ph.Flatten() {
				flat[i] += v
			}
		}
		h = parts[0]
		return h.SetFlattened(flat)
	})
	if err != nil {
		return err
	}
	gs, err := timeIt(5, func() error {
		_, err := grid.BuildAdaptive(h, cfg.Adaptive)
		return err
	})
	if err != nil {
		return err
	}
	L["grid.build_ms"] = gs * 1e3
	var levelsErr error
	L["mafia.levels_s"], err = timeIt(3, func() error {
		lc := mafia.Config{Hist: h}
		res, err := fit(lc, shards)
		if err == nil && levelsErr == nil {
			levelsErr = checkFit(refIm, res)
		}
		return err
	})
	if err != nil {
		return err
	}
	if levelsErr != nil {
		e.out.fail(true, "fit with injected histogram: %v", levelsErr)
	}
	t0 := time.Now()
	serial, err := fit(mafia.Config{}, fileShards(f, 1))
	if err != nil {
		return err
	}
	L["fit.serial_s"] = time.Since(t0).Seconds()
	L["fit.speedup"] = L["fit.serial_s"] / fitS
	if err := checkFit(refIm, serial); err != nil {
		e.out.fail(true, "p=1 fit: %v", err)
	}
	return modelLayers(e, ref)
}

// modelLayers times saving, loading and compiling a fitted model.
func modelLayers(e *env, res *mafia.Result) error {
	L := e.out.layers
	path := filepath.Join(e.dir, "layers.pmfm")
	var err error
	var loaded *mafia.Result
	if L["modelio.save_ms"], err = timeIt(5, func() error { return modelio.SaveMeta(path, res, 1) }); err != nil {
		return err
	}
	if L["modelio.load_ms"], err = timeIt(9, func() error {
		loaded, err = modelio.Load(path)
		return err
	}); err != nil {
		return err
	}
	if L["assign.compile_ms"], err = timeIt(9, func() error {
		_, err := assign.New(loaded.Grid, loaded.Clusters)
		return err
	}); err != nil {
		return err
	}
	for _, k := range []string{"modelio.save_ms", "modelio.load_ms", "assign.compile_ms"} {
		L[k] *= 1e3
	}
	return nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
