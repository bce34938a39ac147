package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cdml/internal/core"
	"cdml/internal/data"
	"cdml/internal/engine"
	"cdml/internal/obs"
	"cdml/internal/serve"
	"cdml/internal/snapstream"
	"cdml/internal/wal"
)

// The traced run measures the same workload once more against a live
// server for the harness and queue rows, then restores the served snapshot
// into an in-process deployer and times each layer by calling its public
// functions on the run's own inputs. Times are medians of many calls; a
// self time is the median over calls of a call's time minus the times of
// its timed children on the same input.

// componentNames are the served URL pipeline's components.
var componentNames = []string{"imputer", "standard-scaler", "feature-hasher"}

const (
	readCalls  = 2000 // calls per timed read-side function
	allocCalls = 500  // calls per allocation count
	writeCalls = 200  // chunks per timed write-side function
	fileCalls  = 10   // checkpoint encodes / writes
)

// timeMedian returns the median duration of n calls of f(i).
func timeMedian(n int, f func(i int)) time.Duration {
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		f(i)
		xs[i] = float64(time.Since(t))
	}
	return time.Duration(median(xs))
}

// allocsPerCall counts heap allocations per call of f over n calls of the
// same input: the runtime.MemStats.Mallocs delta on one P, truncated to a
// whole count as testing.AllocsPerRun does, so a stray allocation by an
// idle background goroutine does not blur a count that repeats exactly.
func allocsPerCall(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // first call may fill lazily built state
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64((b.Mallocs - a.Mallocs) / uint64(n))
}

func runTraced(bin, work string, w *workload, seed int64, window time.Duration, res *result) error {
	srv, err := startServer(bin, work, w)
	if err != nil {
		return err
	}
	defer srv.stop()
	g := newGen(w, newStream(w, seed), seed)
	g.connect(srv.addr)
	g.traced = true
	defer g.close()
	// Tick spans (with their queue-wait stage) live in a 64-entry ring;
	// fetch it often enough that no tick of the window is missed.
	every := min(250*time.Millisecond, time.Duration(float64(32*time.Second)/max(w.ingestCPS, 1)))
	ss, err := g.measure(window, func(items []item) []item {
		for t := every; t < window; t += every {
			items = append(items, item{due: t, kind: kTrace})
		}
		sortByDue(items)
		return items
	})
	if err != nil {
		return err
	}
	dep, frame, err := g.finish(ss, res)
	if err != nil {
		return err
	}
	defer dep.Shutdown()
	res.Attempted, res.Failed = counts(ss.nominal)

	harness(ss, res)
	if err := queueRows(ss, res); err != nil {
		return err
	}
	res.set("data.mu", ss.statsB.Mu, "ratio")
	secs := ss.windowLen.Seconds()
	res.set("runtime.gc_cycles_per_s",
		(ss.metricsB["cdml_runtime_gc_cycles_total"]-ss.metricsA["cdml_runtime_gc_cycles_total"])/secs, "1/s")
	res.set("runtime.heap_mb", ss.metricsB["cdml_runtime_heap_alloc_bytes"]/(1<<20), "MiB")
	if err := srv.stop(); err != nil {
		return err
	}

	if err := readSide(g, ss, dep, res); err != nil {
		return err
	}
	readResidual(res)
	if err := writeSide(g, ss, dep, frame, work, res); err != nil {
		return err
	}
	return nil
}

// harness reports the generator's own share of predict latency.
func harness(ss *session, res *result) {
	var client, service, total []float64
	for _, o := range ss.nominal {
		if o.kind == kPredict && o.sent >= 0 && !o.failed {
			rt := ms(o.done - o.sent)
			service = append(service, rt)
			client = append(client, 1000*(rt-o.handlerMS))
			total = append(total, ms(o.done-o.due))
		}
	}
	late := lateness(ss.nominal)
	res.set("harness.gen_late_p50_ms", quantile(late, 0.5), "ms")
	res.set("harness.gen_late_p99_ms", quantile(late, 0.99), "ms")
	res.set("harness.client_us", median(client), "us")
	res.set("harness.service_p50_ms", median(service), "ms")
	res.set("read.total_p50_ms", median(total), "ms")
}

// queueRows reports the async-ingest queue: the p99 queue-wait stage of
// the window's ticks (from the server's tick spans) and the share of
// chunks refused with 503 queue_full.
func queueRows(ss *session, res *result) error {
	seen := map[time.Time]bool{}
	var waits []float64
	for _, o := range ss.nominal {
		if o.kind != kTrace || o.failed {
			continue
		}
		var tr struct {
			Spans []*obs.Span `json:"spans"`
		}
		if err := json.Unmarshal(o.body, &tr); err != nil {
			return fmt.Errorf("decoding /trace: %w", err)
		}
		for _, sp := range tr.Spans {
			if sp.Name != "tick" || seen[sp.Start] {
				continue
			}
			seen[sp.Start] = true
			for _, c := range sp.Children {
				if c.Name == "queue-wait" {
					waits = append(waits, float64(c.DurationNS)/1e6)
				}
			}
		}
	}
	var attempts, full float64
	for _, o := range ss.nominal {
		if o.kind == kIngest {
			attempts++
			if o.status == http.StatusServiceUnavailable {
				full++
			}
		}
	}
	res.set("serve.queue_wait_p99_ms", quantile(waits, 0.99), "ms")
	res.set("serve.queue_full_ratio", full/max(attempts, 1), "ratio")
	return nil
}

// readResidual reports the part of the live median predict latency the
// harness rows and the read-side self times do not account for.
func readResidual(res *result) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	sum := 1000*v("harness.gen_late_p50_ms") + v("harness.client_us") + v("serve.handler_self_us") +
		v("core.predict_self_us") + v("dataset.parse_us") + v("pipeline.instances_us") + v("model.score_us")
	for _, name := range componentNames {
		sum += v("pipeline.transform." + name + "_us")
	}
	res.set("read.residual_us", 1000*v("read.total_p50_ms")-sum, "us")
}

// bodyReader is a reusable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// discardWriter is a reusable ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(s int)           { d.status = s }

// readSide times the predict path layer by layer on the window's predict
// batches, and counts its allocations on the first batch. The timed calls
// are interleaved batch by batch, so every layer and the totals it is
// subtracted from are sampled under the same conditions.
func readSide(g *gen, ss *session, dep *core.Deployer, res *result) error {
	var batches [][][]byte
	for _, o := range ss.nominal {
		if o.kind == kPredict && len(batches) < readCalls {
			batches = append(batches, g.s.predictBatch(g.w, o.idx))
		}
	}
	n := len(batches)
	pipe, mdl, predict := dep.Pipeline(), dep.Model(), deployConfig(g.w).Predict

	// The handler, through the full serve middleware, on one reused
	// request and response writer.
	api := serve.New(dep, serve.WithSlog(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer api.Close()
	body := &bodyReader{}
	req, err := http.NewRequest("POST", predictPath, body)
	if err != nil {
		return err
	}
	rw := &discardWriter{h: http.Header{}}
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = joinRecords(batches[i])
	}
	serveOne := func(payload []byte) {
		body.Reset(payload)
		req.ContentLength = int64(len(payload))
		clear(rw.h)
		api.ServeHTTP(rw, req)
	}

	// Each round serves every batch three ways: Deployer.Predict, the
	// handler, and the predict path's layers in the order Deployer.Predict
	// runs them, timed one after another on the same data, so each layer is
	// timed in context (its input fresh in cache, as in a real call).
	// Sample columns: 0 Predict, 1 handler, 2 parse, 3 instances, 4 score,
	// 5+c component c.
	comps := pipe.Components
	samples := make([][]float64, 5+len(comps))
	since := func(k int, t time.Time) time.Time {
		now := time.Now()
		samples[k] = append(samples[k], float64(now.Sub(t)))
		return now
	}
	for round := 0; round*n < readCalls; round++ {
		for i := 0; i < n; i++ {
			t := time.Now()
			if _, err := dep.Predict(batches[i]); err != nil {
				return err
			}
			t = since(0, t)
			serveOne(payloads[i])
			t = since(1, t)
			f, err := pipe.Parser.Parse(batches[i])
			if err != nil {
				return err
			}
			t = since(2, t)
			for c, comp := range comps {
				if f, err = comp.Transform(f); err != nil {
					return err
				}
				t = since(5+c, t)
			}
			inst, err := pipe.Instances(f)
			if err != nil {
				return err
			}
			t = since(3, t)
			for _, in := range inst {
				_ = predict(mdl, in.X)
			}
			since(4, t)
		}
	}
	if rw.status != http.StatusOK {
		return fmt.Errorf("in-process predict handler answered %d", rw.status)
	}
	// selfTime is the median over the calls of call k's time minus its
	// children's on the same batch. It reads the samples in call order, so
	// it runs before the medians below sort them.
	selfTime := func(k int, children ...int) time.Duration {
		xs := make([]float64, len(samples[k]))
		for j := range xs {
			xs[j] = samples[k][j]
			for _, c := range children {
				xs[j] -= samples[c][j]
			}
		}
		return time.Duration(median(xs))
	}
	predictChildren := []int{2, 3, 4}
	for c := range comps {
		predictChildren = append(predictChildren, 5+c)
	}
	predictSelf, handlerSelf := selfTime(0, predictChildren...), selfTime(1, 0)
	med := make([]time.Duration, len(samples))
	for k := range samples {
		med[k] = time.Duration(median(samples[k]))
	}
	for _, name := range componentNames {
		res.set("pipeline.transform."+name+"_us", 0, "us")
	}
	for c, comp := range comps {
		res.set("pipeline.transform."+comp.Name()+"_us", us(med[5+c]), "us")
	}
	res.set("dataset.parse_us", us(med[2]), "us")
	res.set("pipeline.instances_us", us(med[3]), "us")
	res.set("model.score_us", us(med[4]), "us")
	res.set("core.predict_self_us", us(predictSelf), "us")
	res.set("serve.handler_self_us", us(handlerSelf), "us")

	first := batches[0]
	predictAllocs := allocsPerCall(allocCalls, func() { _, _ = dep.Predict(first) })
	res.set("core.predict_allocs", predictAllocs, "count")
	res.set("serve.handler_allocs", allocsPerCall(allocCalls, func() { serveOne(payloads[0]) })-predictAllocs, "count")
	parseAllocs := allocsPerCall(allocCalls, func() { _, _ = pipe.Parser.Parse(first) })
	res.set("dataset.parse_allocs", parseAllocs, "count")
	res.set("pipeline.serve_allocs", allocsPerCall(allocCalls, func() { _, _ = pipe.ProcessServe(first) })-parseAllocs, "count")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = api.DrainIngest(drainCtx) // stops the idle ingest drainer; nothing was queued
	return nil
}

// writeSide times the training path: online preprocessing, the sharded
// update, whole ticks with their stages (replaying the window's chunks
// and predicts at their nominal pace, since proactive training is
// scheduled in wall-clock time), the WAL append and the checkpoint path.
func writeSide(g *gen, ss *session, dep *core.Deployer, frame snapstream.Frame, work string, res *result) error {
	var chunks [][][]byte
	var events []outcome
	for _, o := range ss.nominal {
		switch o.kind {
		case kIngest:
			if o.failed {
				continue
			}
			chunks = append(chunks, g.s.ingestChunk(g.w, o.idx))
			events = append(events, o)
		case kPredict:
			events = append(events, o)
		}
	}
	if len(chunks) == 0 {
		return fmt.Errorf("no chunk was ingested in the window")
	}
	n := len(chunks)
	at := func(i int) [][]byte { return chunks[i%n] }

	// Online preprocessing on a scratch copy of the served state, so the
	// replayed ticks below start from exactly the served statistics.
	scratch, err := restore(g.w, frame)
	if err != nil {
		return err
	}
	defer scratch.Shutdown()
	sp := scratch.Pipeline()
	online := timeMedian(writeCalls, func(i int) { _, _ = sp.ProcessOnline(at(i)) })
	res.set("pipeline.online_us_per_record", us(online)/float64(len(at(0))), "us")
	first := at(0)
	res.set("pipeline.online_allocs_per_record",
		allocsPerCall(allocCalls/10, func() { _, _ = sp.ProcessOnline(first) })/float64(len(first)), "count")

	cfg := deployConfig(g.w)
	eng := engine.New(0)
	batches := make([][]data.Instance, min(n, writeCalls))
	for i := range batches {
		batches[i], _ = sp.ProcessServe(at(i))
	}
	mdl, om := scratch.Model().Clone(), cfg.NewOptimizer()
	sharded := timeMedian(writeCalls, func(i int) {
		_, _, _ = core.ShardedUpdate(context.Background(), eng, core.DefaultGradShardRows, mdl, om, batches[i%len(batches)])
	})
	res.set("core.sharded_update_us", us(sharded), "us")

	if err := replayTicks(dep, events, chunks, g, ss.windowLen/4, res); err != nil {
		return err
	}

	if err := walRows(g.w, work, chunks, res); err != nil {
		return err
	}
	snap := dep.Current()
	frameT := timeMedian(fileCalls, func(int) { _, _ = snap.Frame() })
	res.set("snapstream.frame_ms", ms(frameT), "ms")
	res.set("ckpt.encode_ms", 0, "ms")
	res.set("ckpt.write_ms", 0, "ms")
	res.set("ckpt.bytes", 0, "B")
	if g.w.wal {
		res.set("ckpt.encode_ms", ms(timeMedian(fileCalls, func(int) { _ = dep.Checkpoint(io.Discard) })), "ms")
		dir := filepath.Join(work, "trace-ckpt")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var werr error
		res.set("ckpt.write_ms", ms(timeMedian(fileCalls, func(int) {
			if _, err := core.WriteCheckpointFile(dir, snap); err != nil {
				werr = err
			}
		})), "ms")
		if werr != nil {
			return werr
		}
		f, err := snap.Frame()
		if err != nil {
			return err
		}
		res.set("ckpt.bytes", float64(snapstream.EncodedLen(f)), "B")
	}
	return nil
}

// replayTicks replays the first span of the window's ingest chunks through
// IngestCtx, with the window's predicts in between, at their original
// offsets, and reads
// each tick's stage spans from the deployer's tracer.
func replayTicks(dep *core.Deployer, events []outcome, chunks [][][]byte, g *gen, span time.Duration, res *result) error {
	stages := map[string]float64{}
	names := []string{"serve", "preprocess", "materialize", "online-update", "proactive-train"}
	var ticks, tickSum float64
	before := dep.Stats().ProactiveRuns
	start := time.Now()
	base := events[0].due
	limit := base + span
	ci := 0
	for _, e := range events {
		if e.due > limit {
			break
		}
		if d := time.Until(start.Add(e.due - base)); d > 0 {
			time.Sleep(d)
		}
		if e.kind == kPredict {
			if _, err := dep.Predict(g.s.predictBatch(g.w, e.idx)); err != nil {
				return err
			}
			continue
		}
		t := time.Now()
		if err := dep.IngestCtx(context.Background(), chunks[ci]); err != nil {
			return err
		}
		tickSum += ms(time.Since(t))
		ticks++
		ci++
		last := dep.Tracer().Last(1)
		if len(last) == 1 {
			for _, c := range last[0].Children {
				stages[c.Name] += float64(c.DurationNS) / 1e6
			}
		}
	}
	if ticks == 0 {
		return fmt.Errorf("no tick replayed")
	}
	res.set("core.tick_ms", tickSum/ticks, "ms")
	accounted := 0.0
	for _, s := range names {
		res.set("core.tick."+strings.ReplaceAll(s, "-", "_")+"_ms", stages[s]/ticks, "ms")
		accounted += stages[s] / ticks
	}
	res.set("core.tick.residual_ms", tickSum/ticks-accounted, "ms")
	res.set("core.proactive_per_chunk", float64(dep.Stats().ProactiveRuns-before)/ticks, "ratio")
	return nil
}

// walRows times Log.Append (which fsyncs) plus Sync on the run's
// filesystem, for the workload whose server logs ingest.
func walRows(w *workload, work string, chunks [][][]byte, res *result) error {
	res.set("wal.append_sync_us", 0, "us")
	res.set("wal.bytes_per_chunk", 0, "B")
	if !w.wal {
		return nil
	}
	l, err := wal.Open(wal.Options{Dir: filepath.Join(work, "trace-wal")})
	if err != nil {
		return err
	}
	defer l.Close()
	var aerr error
	d := timeMedian(min(len(chunks), writeCalls), func(i int) {
		if _, err := l.Append(chunks[i], 1); err != nil {
			aerr = err
		}
		if err := l.Sync(); err != nil {
			aerr = err
		}
	})
	if aerr != nil {
		return aerr
	}
	st := l.Stats()
	res.set("wal.append_sync_us", us(d), "us")
	res.set("wal.bytes_per_chunk", float64(st.Bytes)/float64(st.Appends), "B")
	return nil
}
