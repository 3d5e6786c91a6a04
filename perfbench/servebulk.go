package main

// serve_bulk: a closed loop of two clients (no more than the cores)
// sending framed /assign requests of 4096 16-dimensional records each to
// an in-process pmafiad with its default configuration (no coalescing,
// no tracing), serving a fitted model of about two dozen clusters. Frame
// decode, the batch assign kernel and label encoding dominate each
// request; the fit layers are idle.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pmafia/internal/assign"
	"pmafia/internal/daemon"
	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
	"pmafia/internal/obs"
)

const (
	bulkDims = 16
	// serveSetupRounds is how often the serving workloads start a daemon
	// and wait for its first answer; setup_s is the median.
	serveSetupRounds = 101
)

// bulkSpec draws the serve_bulk data from seed: four groups of three
// dimensions, each holding six narrow clusters at separated positions,
// so the fitted model has about two dozen clusters.
func bulkSpec(seed uint64, records int) datagen.Spec {
	r := rand.New(rand.NewPCG(seed, 0x62756c6b))
	perm := r.Perm(bulkDims)
	var cl []datagen.Cluster
	for g := 0; g < 4; g++ {
		dims := perm[3*g : 3*g+3]
		for k := 0; k < 6; k++ {
			ext := make([]dataset.Range, len(dims))
			for i := range ext {
				lo := 2 + 16*float64(k) + 11*r.Float64()
				ext[i] = dataset.Range{Lo: lo, Hi: lo + 4}
			}
			cl = append(cl, datagen.UniformBox(dims, ext, 0))
		}
	}
	return datagen.Spec{Dims: bulkDims, Records: records, Seed: seed, Clusters: cl}
}

// newClient returns a keep-alive client holding at most conns
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// closeClient drops the client's idle connections so no connection
// goroutine outlives the run.
func closeClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}

// startDaemon binds an in-process daemon on a loopback port and serves.
func startDaemon(e *env, cfg daemon.Config) (*daemon.Daemon, error) {
	cfg.Addr = "127.0.0.1:0"
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	d.Serve()
	if e.onListen != nil {
		e.onListen(d.Addr())
	}
	return d, nil
}

// stopDaemon drains a daemon; it waits for in-flight requests and any
// refit, so nothing it started is left running.
func stopDaemon(d *daemon.Daemon) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.Shutdown(ctx)
}

// post sends one request and reads the whole reply into buf.
func post(ctx context.Context, c *http.Client, url, ctype string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func serveBulk(e *env) error {
	// A round is 8 requests per client, each body once. Short rounds
	// keep the rare slow request of a shared host out of most of them,
	// so their median rate tracks the daemon rather than the host.
	train, pool, bodyRecs, perRound := 200_000, 8, 4096, 8
	if e.small {
		train, pool, bodyRecs, perRound = 30_000, 4, 512, 4
	}
	spec := bulkSpec(e.seed, train)
	data, _, err := datagen.Generate(spec)
	if err != nil {
		return err
	}
	res, err := mafia.Run(data, mafia.Config{})
	if err != nil {
		return fmt.Errorf("fitting the served model: %w", err)
	}
	data = nil
	modelDir := filepath.Join(e.dir, "models")
	if err := os.Mkdir(modelDir, 0o755); err != nil {
		return err
	}
	if err := modelio.Save(filepath.Join(modelDir, "bulk.pmfm"), res); err != nil {
		return err
	}
	model, err := modelio.Load(filepath.Join(modelDir, "bulk.pmfm"))
	if err != nil {
		return err
	}

	// Request bodies come from the same clusters under another seed.
	spec.Seed = ^e.seed
	spec.Records = pool * bodyRecs
	queries, _, err := datagen.Generate(spec)
	if err != nil {
		return err
	}
	bodies := make([][]byte, pool)
	vals := make([][]float64, pool)
	want := make([][]int32, pool)
	for i := range bodies {
		vals[i] = queries.Values[i*bodyRecs*bulkDims : (i+1)*bodyRecs*bulkDims]
		if bodies[i], err = daemon.EncodeFrame(bulkDims, vals[i]); err != nil {
			return err
		}
		want[i] = oracleLabels(model, vals[i], bulkDims)
	}
	e.logf("model: %d clusters over %d dims; %d bodies of %d records", len(model.Clusters), bulkDims, pool, bodyRecs)

	clients := min(2, e.cores)
	hc := newClient(clients)
	defer closeClient(hc)
	var buf bytes.Buffer
	var d *daemon.Daemon
	defer func() {
		if d != nil {
			stopDaemon(d)
		}
	}()
	// Set-up: start the daemon and wait for its first answer, which
	// loads and compiles the model.
	var setups []float64
	for i := 0; i < serveSetupRounds; i++ {
		if d != nil {
			if err := stopDaemon(d); err != nil {
				return err
			}
			d = nil
			closeClient(hc)
		}
		t0 := time.Now()
		if d, err = startDaemon(e, daemon.Config{ModelDir: modelDir}); err != nil {
			return err
		}
		url := "http://" + d.Addr() + "/assign?model=bulk.pmfm"
		code, err := post(e.ctx, hc, url, daemon.ContentTypeFrame, bodies[0], &buf)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("first /assign: HTTP %d: %s", code, buf.Bytes())
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := checkFrameLabels(want[0], buf.Bytes()); err != nil {
			e.out.fail(true, "first /assign: %v", err)
		}
	}
	url := "http://" + d.Addr() + "/assign?model=bulk.pmfm"

	var mu sync.Mutex
	var lat, rounds []float64
	send := func(c, i int, buf *bytes.Buffer) {
		b := (c + i) % pool
		t0 := time.Now()
		code, err := post(e.ctx, hc, url, daemon.ContentTypeFrame, bodies[b], buf)
		dt := time.Since(t0).Seconds()
		mu.Lock()
		defer mu.Unlock()
		e.out.attempted++
		switch {
		case e.ctx.Err() != nil:
		case err != nil:
			e.out.fail(false, "/assign: %v", err)
		case code != http.StatusOK:
			e.out.fail(false, "/assign: HTTP %d: %s", code, buf.Bytes())
		default:
			if err := checkFrameLabels(want[b], buf.Bytes()); err != nil {
				e.out.fail(true, "/assign body %d: %v", b, err)
				return
			}
			lat = append(lat, dt)
		}
	}
	// A warm-up round, checked but not timed, so every client holds a
	// connection before the window opens.
	closedLoop(clients, 1, send)
	lat = lat[:0]
	warm := e.out.attempted

	a0 := totalAlloc()
	start := time.Now()
	for len(rounds) == 0 || time.Since(start).Seconds() < e.seconds {
		if e.ctx.Err() != nil {
			return e.ctx.Err()
		}
		failed := e.out.failed
		rs := closedLoop(clients, perRound, send)
		ok := clients*perRound - (e.out.failed - failed)
		rounds = append(rounds, float64(ok*bodyRecs)/rs)
	}
	ops := e.out.attempted - warm
	alloc := float64(totalAlloc()-a0) / float64(ops)
	if e.ctx.Err() != nil {
		return e.ctx.Err()
	}
	if len(lat) == 0 {
		return fmt.Errorf("no /assign request succeeded (%d attempted)", ops)
	}
	p50 := median(lat)
	e.logf("window: %d requests in %d rounds, p50 %.3fms, p99 %.3fms", ops, len(rounds), p50*1e3, quantile(lat, 0.99)*1e3)

	e.out.e2e["setup_s"] = median(setups)
	e.out.e2e["records_per_s"] = median(rounds)
	e.out.e2e["op_p50_ms"] = p50 * 1e3
	e.out.e2e["alloc_kb_per_op"] = alloc / 1024
	e.out.e2e["retained_heap_mb"] = heapMB()
	if e.trace == 0 {
		return nil
	}

	L := e.out.layers
	ix, err := assign.New(model.Grid, model.Clusters)
	if err != nil {
		return err
	}
	scratch := ix.Scratch()
	labels := make([]int32, bodyRecs)
	per := make([]float64, pool)
	for b := range vals {
		if per[b], err = timeIt(15, func() error { return ix.AssignChunk(vals[b], labels, scratch) }); err != nil {
			return err
		}
	}
	kernel := median(per)
	L["assign.kernel_records_per_s"] = float64(bodyRecs) / kernel
	L["daemon.bulk_overhead_ms"] = (p50 - kernel) * 1e3
	L["daemon.queue_p50_ms"] = d.Recorder().Histogram(obs.HistAssignQueueSeconds).Quantile(0.5) * 1e3
	if len(lat) >= 1000 {
		L["client.assign_p99_ms"] = quantile(lat, 0.99) * 1e3
	}
	return modelLayers(e, model)
}

// closedLoop runs one round: clients goroutines each send perRound
// requests back to back, each after the previous reply. It returns the
// round's wall time in seconds.
func closedLoop(clients, perRound int, send func(c, i int, buf *bytes.Buffer)) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < perRound; i++ {
				send(c, i, &buf)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
