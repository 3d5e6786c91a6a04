package main

// ingest_serve: the write side beside the read side. One client streams
// CSV /ingest batches of 250 8-dimensional records into an in-process
// pmafiad and asks for a synchronous ?refit=1 after every 10,000
// records; a fixed, seeded set of batches carries a record just past the
// largest value seen so far in one dimension, so the histogram rebuild
// on domain growth runs a known number of times. Beside the stream, a
// second client sends 8-record CSV /assign requests against the
// stream's model: readsPerBatch of them for every batch acknowledged
// from the first generation on, while a short SwapCheck makes each
// generation go live. A round is one whole stream and its reads on a
// fresh daemon, the same work every time; the window runs whole rounds.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"pmafia/internal/assign"
	"pmafia/internal/daemon"
	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/ingest"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
	"pmafia/internal/obs"
)

const (
	ingestDims = 8
	// readRecords is the size of each /assign request on ingest_serve.
	readRecords = 8
	// readsPerBatch is how many /assign requests each acknowledged batch
	// owes the read client once generation 1 is written. A fixed count,
	// rather than a closed loop, keeps the split of the two cores
	// between the stream and the reads out of the scheduler's hands.
	readsPerBatch = 6
	streamModel   = "stream.pmfm"
)

// stream is one seeded ingest stream and everything its checks need.
type stream struct {
	batch    int
	vals     []float64 // every streamed record, row-major
	bodies   [][]byte  // CSV body of each batch
	refitAt  []bool    // batch i ends with ?refit=1
	growth   []int     // batches that grow a domain
	gens     []*mafia.Result
	final    *fitImage   // the last generation, as a fit image
	reads    [][]byte    // CSV bodies of the /assign requests
	readVals [][]float64 // their records
	oracles  [][][]int32 // [read body][generation-1] labels
}

// newStream draws the stream from seed: two clusters of width 20 in
// disjoint 3- and 2-dimensional subspaces plus 10% noise, all inside
// [0,100). The first batch opens with an all-0 and an all-100 record so
// the domain seen is fixed from the start; after that only the seeded
// growth batches widen it.
func newStream(seed uint64, records, batch, refitEvery, growth int) (*stream, error) {
	r := rand.New(rand.NewPCG(seed, 0x696e67657374))
	perm := r.Perm(ingestDims)
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
	spec := datagen.Spec{
		Dims:     ingestDims,
		Records:  records,
		Seed:     seed,
		Clusters: []datagen.Cluster{box(perm[:3]), box(perm[3:5])},
	}
	m, _, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	st := &stream{batch: batch, vals: m.Values[:records*ingestDims]}
	row := func(i int) []float64 { return st.vals[i*ingestDims : (i+1)*ingestDims] }
	for j := 0; j < ingestDims; j++ {
		row(0)[j], row(1)[j] = 0, 100
	}
	nb := records / batch
	hi := make([]float64, ingestDims)
	for j := range hi {
		hi[j] = 100
	}
	// Growth batches come after the fine-unit count has settled (it
	// scales with the records seen up to 10,000, and every step rebuilds
	// the histogram too), so each of them costs one rebuild of its own.
	settled := min(10_000/batch, nb/2)
	st.growth = r.Perm(nb - settled)[:growth]
	for i := range st.growth {
		st.growth[i] += settled
	}
	slices.Sort(st.growth)
	for _, b := range st.growth {
		j := r.IntN(ingestDims)
		hi[j] += 0.5
		row(b * batch)[j] = hi[j]
	}
	st.refitAt = make([]bool, nb)
	for i := range st.refitAt {
		st.refitAt[i] = (i+1)*batch%refitEvery == 0
		st.bodies = append(st.bodies, csvBody(st.vals[i*batch*ingestDims:(i+1)*batch*ingestDims]))
	}

	// The generations a faithful stream must write: batch fits over
	// exactly the records streamed before each refit.
	for n := refitEvery; n <= records; n += refitEvery {
		res, err := mafia.Run(&dataset.Matrix{D: ingestDims, Values: st.vals[:n*ingestDims]}, mafia.Config{})
		if err != nil {
			return nil, fmt.Errorf("batch fit of %d records: %w", n, err)
		}
		st.gens = append(st.gens, res)
	}
	if st.final, err = imageOf(st.gens[len(st.gens)-1]); err != nil {
		return nil, err
	}

	// Read requests: records from the same clusters under another seed.
	spec.Seed, spec.Records = ^seed, 32*readRecords
	q, _, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 32; i++ {
		v := q.Values[i*readRecords*ingestDims : (i+1)*readRecords*ingestDims]
		st.readVals = append(st.readVals, v)
		st.reads = append(st.reads, csvBody(v))
		var o [][]int32
		for _, g := range st.gens {
			o = append(o, oracleLabels(g, v, ingestDims))
		}
		st.oracles = append(st.oracles, o)
	}
	return st, nil
}

// csvBody formats records as CSV with values that parse back exactly.
func csvBody(vals []float64) []byte {
	var b []byte
	for i, v := range vals {
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		if (i+1)%ingestDims == 0 {
			b = append(b, '\n')
		} else {
			b = append(b, ',')
		}
	}
	return b
}

// ingestReply is the part of the /ingest reply the checks read.
type ingestReply struct {
	Appended   int    `json:"appended"`
	Records    int    `json:"records"`
	Generation uint64 `json:"generation"`
	Refitted   bool   `json:"refitted"`
}

// roundStats is what one stream round measured.
type roundStats struct {
	streamS   float64   // first /ingest sent to last reply
	readS     float64   // first /assign sent to last reply
	batchLat  []float64 // the /ingest round trip of every batch, in stream order
	ingestLat []float64 // /ingest round trips without a refit
	refitLat  []float64 // /ingest?refit=1 round trips
	readLat   []float64 // /assign round trips
	swaps     float64
	swapP50   float64
}

// round streams st once into a fresh daemon, with the read client beside
// it, and checks every reply. The daemon is returned still serving, for
// the caller to stop.
func (st *stream) round(e *env, hc *http.Client, mu *sync.Mutex) (*daemon.Daemon, *roundStats, error) {
	dir, err := os.MkdirTemp(e.dir, "round-*")
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(e, daemon.Config{
		ModelDir:    dir,
		IngestModel: streamModel,
		IngestDims:  ingestDims,
		SwapCheck:   2 * time.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	base := "http://" + d.Addr()
	rs := &roundStats{}
	// owed carries the read body of every /assign the stream has owed
	// the read client so far; it is closed when the stream ends. It has
	// room for every read of the round, so the stream never waits on it.
	owed := make(chan int, len(st.bodies)*readsPerBatch)
	type read struct {
		body   int
		labels []int32
	}
	var replies []read

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf bytes.Buffer
		var t0 time.Time
		for b := range owed {
			if e.ctx.Err() != nil {
				continue
			}
			if t0.IsZero() {
				t0 = time.Now()
			}
			r0 := time.Now()
			code, err := post(e.ctx, hc, base+"/assign?model="+streamModel, "text/csv", st.reads[b], &buf)
			dt := time.Since(r0).Seconds()
			var reply struct{ Labels []int32 }
			if err == nil && code == http.StatusOK {
				err = json.Unmarshal(buf.Bytes(), &reply)
			}
			mu.Lock()
			e.out.attempted++
			switch {
			case e.ctx.Err() != nil:
			case err != nil:
				e.out.fail(false, "/assign: %v", err)
			case code != http.StatusOK:
				e.out.fail(false, "/assign: HTTP %d: %s", code, buf.Bytes())
			default:
				rs.readLat = append(rs.readLat, dt)
				replies = append(replies, read{b, reply.Labels})
			}
			mu.Unlock()
		}
		if !t0.IsZero() {
			rs.readS = time.Since(t0).Seconds()
		}
	}()

	var gens []uint64
	var buf bytes.Buffer
	nread := 0
	t0 := time.Now()
	for i, body := range st.bodies {
		if e.ctx.Err() != nil {
			break
		}
		url := base + "/ingest"
		if st.refitAt[i] {
			url += "?refit=1"
		}
		r0 := time.Now()
		code, err := post(e.ctx, hc, url, "text/csv", body, &buf)
		dt := time.Since(r0).Seconds()
		var reply ingestReply
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(buf.Bytes(), &reply)
		}
		rs.batchLat = append(rs.batchLat, dt)
		mu.Lock()
		e.out.attempted++
		switch {
		case e.ctx.Err() != nil:
		case err != nil:
			e.out.fail(false, "/ingest batch %d: %v", i, err)
		case code != http.StatusOK:
			e.out.fail(false, "/ingest batch %d: HTTP %d: %s", i, code, buf.Bytes())
		case reply.Appended != st.batch || reply.Records != (i+1)*st.batch || reply.Refitted != st.refitAt[i]:
			e.out.fail(true, "/ingest batch %d: reply %+v", i, reply)
		case st.refitAt[i]:
			rs.refitLat = append(rs.refitLat, dt)
			gens = append(gens, reply.Generation)
		default:
			rs.ingestLat = append(rs.ingestLat, dt)
		}
		mu.Unlock()
		if len(gens) > 0 {
			for k := 0; k < readsPerBatch; k++ {
				owed <- nread % len(st.reads)
				nread++
			}
		}
	}
	rs.streamS = time.Since(t0).Seconds()
	close(owed)
	wg.Wait()
	if err := e.ctx.Err(); err != nil {
		return d, nil, err
	}

	if err := checkGenerations(gens); err != nil {
		e.out.fail(true, "refits: %v", err)
	}
	for _, r := range replies {
		if matchGeneration(r.labels, st.oracles[r.body]) < 0 {
			e.out.fail(true, "/assign body %d: labels %v match no generation written", r.body, r.labels)
		}
	}
	final, meta, err := modelio.LoadMeta(filepath.Join(dir, streamModel))
	if err != nil {
		e.out.fail(true, "final model: %v", err)
	} else if err := checkFit(st.final, final); err != nil || meta.Generation != uint64(len(st.gens)) {
		e.out.fail(true, "final model (generation %d of %d) differs from the batch fit: %v", meta.Generation, len(st.gens), err)
	}
	rec := d.Recorder()
	rs.swaps = float64(rec.Counter(obs.CtrSwapSwaps))
	rs.swapP50 = rec.Histogram(obs.HistSwapSeconds).Quantile(0.5)
	return d, rs, nil
}

func ingestServe(e *env) error {
	records, batch, refitEvery, growth := 40_000, 250, 10_000, 6
	if e.small {
		records, batch, refitEvery, growth = 2_000, 100, 500, 3
	}
	st, err := newStream(e.seed, records, batch, refitEvery, growth)
	if err != nil {
		return err
	}
	e.logf("stream: %d records of %d dims in batches of %d, refit every %d, growth batches %v",
		records, ingestDims, batch, refitEvery, st.growth)

	hc := newClient(2)
	defer closeClient(hc)
	var d *daemon.Daemon
	defer func() {
		if d != nil {
			stopDaemon(d)
		}
	}()
	stop := func() error {
		err := stopDaemon(d)
		d = nil
		closeClient(hc)
		return err
	}

	// Set-up: start a daemon, stream the first batch with a refit and
	// wait for the first /assign answer from that generation.
	var setups []float64
	var buf bytes.Buffer
	for i := 0; i < serveSetupRounds; i++ {
		dir, err := os.MkdirTemp(e.dir, "setup-*")
		if err != nil {
			return err
		}
		t0 := time.Now()
		if d, err = startDaemon(e, daemon.Config{
			ModelDir: dir, IngestModel: streamModel, IngestDims: ingestDims, SwapCheck: 2 * time.Millisecond,
		}); err != nil {
			return err
		}
		base := "http://" + d.Addr()
		for _, step := range []struct {
			url  string
			body []byte
		}{
			{base + "/ingest?refit=1", st.bodies[0]},
			{base + "/assign?model=" + streamModel, st.reads[0]},
		} {
			code, err := post(e.ctx, hc, step.url, "text/csv", step.body, &buf)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("set-up %s: HTTP %d: %s", step.url, code, buf.Bytes())
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := stop(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}

	// Every round is the same work, so allocation is measured over the
	// whole window; the last round's daemon stays up for the
	// retained-heap measurement.
	var mu sync.Mutex
	var all []*roundStats
	ops := e.out.attempted
	a0 := totalAlloc()
	start := time.Now()
	for len(all) == 0 || time.Since(start).Seconds() < e.seconds {
		if d != nil {
			if err := stop(); err != nil {
				return err
			}
		}
		var rs *roundStats
		d, rs, err = st.round(e, hc, &mu)
		if err != nil {
			return err
		}
		all = append(all, rs)
	}
	alloc := float64(totalAlloc()-a0) / float64(e.out.attempted-ops)
	// The stream time of a typical round, taken batch by batch: each
	// batch's median round trip over the window's rounds, summed. A
	// stall of the shared host that hits a few batches moves none of
	// these medians, where it would move every round it falls in.
	var streamS float64
	for i := range st.bodies {
		var lat []float64
		for _, rs := range all {
			lat = append(lat, rs.batchLat[i])
		}
		streamS += median(lat)
	}
	var roundS, readRate, readLat, ingestLat, refitLat, swaps, swapP50 []float64
	for _, rs := range all {
		roundS = append(roundS, rs.streamS)
		if rs.readS > 0 {
			readRate = append(readRate, float64(len(rs.readLat)*readRecords)/rs.readS)
		}
		readLat = append(readLat, rs.readLat...)
		ingestLat = append(ingestLat, rs.ingestLat...)
		refitLat = append(refitLat, rs.refitLat...)
		swaps = append(swaps, rs.swaps)
		swapP50 = append(swapP50, rs.swapP50)
	}
	if len(readLat) == 0 {
		return fmt.Errorf("no /assign request succeeded")
	}
	p50 := median(readLat)
	e.logf("window: %d rounds, %d /assign requests, stream %.3fs from batch medians (whole rounds: median %.3fs, quartiles %.3fs, %.3fs), refit p50 %.1fms, /assign p50 %.3fms",
		len(all), len(readLat), streamS, median(roundS), quantile(roundS, 0.25), quantile(roundS, 0.75),
		median(refitLat)*1e3, p50*1e3)

	e.out.e2e["setup_s"] = median(setups)
	e.out.e2e["records_per_s"] = float64(records) / streamS
	e.out.e2e["op_p50_ms"] = p50 * 1e3
	e.out.e2e["alloc_kb_per_op"] = alloc / 1024
	e.out.e2e["retained_heap_mb"] = heapMB()
	if e.trace == 0 {
		return nil
	}

	L := e.out.layers
	L["daemon.refit_p50_s"] = median(refitLat)
	L["daemon.swaps"] = median(swaps)
	L["daemon.swap_p50_ms"] = median(swapP50) * 1e3
	L["ingest.buffer_mb"] = float64(records*ingestDims*8) / (1 << 20)
	L["client.read_records_per_s"] = median(readRate)

	// /healthz round trips on the last round's daemon, still serving.
	var hz []float64
	for i := 0; i < 300; i++ {
		req, err := http.NewRequestWithContext(e.ctx, http.MethodGet, "http://"+d.Addr()+"/healthz", nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		buf.Reset()
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		hz = append(hz, time.Since(t0).Seconds())
	}
	L["daemon.healthz_p50_us"] = median(hz) * 1e6

	// The ingester alone, fed the same batches with refits at the same
	// points, three times over.
	var appendS, perBatch, refits []float64
	for pass := 0; pass < 3; pass++ {
		dir, err := os.MkdirTemp(e.dir, "direct-*")
		if err != nil {
			return err
		}
		ing, err := ingest.New(ingestDims, ingest.Config{Dir: dir, Model: streamModel})
		if err != nil {
			return err
		}
		total := 0.0
		for i := range st.bodies {
			v := st.vals[i*batch*ingestDims : (i+1)*batch*ingestDims]
			t0 := time.Now()
			if err := ing.Append(v, batch); err != nil {
				return err
			}
			dt := time.Since(t0).Seconds()
			total += dt
			perBatch = append(perBatch, dt)
			if st.refitAt[i] {
				t0 := time.Now()
				if _, err := ing.Refit(); err != nil {
					return err
				}
				refits = append(refits, time.Since(t0).Seconds())
			}
		}
		appendS = append(appendS, total)
		if err := ing.Close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
	}
	L["ingest.append_records_per_s"] = float64(records) / median(appendS)
	L["ingest.refit_s"] = median(refits)
	L["daemon.ingest_overhead_ms"] = (median(ingestLat) - median(perBatch)) * 1e3

	final := st.gens[len(st.gens)-1]
	ix, err := assign.New(final.Grid, final.Clusters)
	if err != nil {
		return err
	}
	scratch := ix.Scratch()
	labels := make([]int32, readRecords)
	var kernel []float64
	for _, v := range st.readVals {
		k, err := timeIt(51, func() error { return ix.AssignChunk(v, labels, scratch) })
		if err != nil {
			return err
		}
		kernel = append(kernel, k)
	}
	L["daemon.small_overhead_us"] = (p50 - median(kernel)) * 1e6
	return modelLayers(e, final)
}
