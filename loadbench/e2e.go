package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"syscall"
	"time"

	"cdml/internal/core"
	"cdml/internal/snapstream"
)

// setupBoots is how many times a run boots the server to time set-up;
// the last servers of them carry the measurement.
const setupBoots = 15

// servers is how many fresh server processes share a run's nominal window,
// each followed by its own chunk-ladder search. On the reference VM the
// host's other guests made whole stretches of tens of seconds fast or slow,
// by up to 40 %, with this machine otherwise idle; splitting the window and
// the search across processes lets one run sample several of those
// stretches instead of one.
const servers = 5

// session is one measured server's warm-up and nominal window.
type session struct {
	bootStats      statsDoc // before any benchmark traffic
	statsA, statsB statsDoc // bracketing the nominal window
	nominal        []outcome
	polls          []outcome // nominal-window and settle polls
	windowStart    time.Duration
	windowLen      time.Duration
	steal          stealClock // the machine's steal during the window
	// metricsA/B bracket the window with /v1/metrics scrapes (traced runs).
	metricsA, metricsB map[string]float64
}

// measure runs the discarded warm-up and the nominal window at the
// workload's nominal rates. extra adds items to the nominal schedule.
func (g *gen) measure(window time.Duration, extra func([]item) []item) (*session, error) {
	ss := &session{windowLen: window}
	var err error
	if g.bootVersion, err = g.version(); err != nil {
		return nil, err
	}
	g.lastVersion.Store(g.bootVersion)
	if err := g.getJSON(statsPath, &ss.bootStats); err != nil {
		return nil, err
	}
	if _, err := g.run(g.schedule(g.w.predictRPS, g.w.ingestCPS, warmupLen, warmPhase)); err != nil {
		return nil, err
	}
	if err := g.getJSON(statsPath, &ss.statsA); err != nil {
		return nil, err
	}
	if g.traced {
		if ss.metricsA, err = g.metricsText(); err != nil {
			return nil, err
		}
	}
	items := g.schedule(g.w.predictRPS, g.w.ingestCPS, window, windowPhase)
	if extra != nil {
		items = extra(items)
	}
	ss.windowStart = g.since()
	stop, sampled := make(chan struct{}), make(chan stealClock)
	go func() { sampled <- g.sampleSteal(stop) }()
	ss.nominal, err = g.run(items)
	close(stop)
	ss.steal = <-sampled
	if err != nil {
		return nil, err
	}
	if err := g.getJSON(statsPath, &ss.statsB); err != nil {
		return nil, err
	}
	if g.traced {
		if ss.metricsB, err = g.metricsText(); err != nil {
			return nil, err
		}
	}
	settle, err := g.settle(10 * time.Second)
	if err != nil {
		return nil, err
	}
	for _, o := range ss.nominal {
		if o.kind == kPoll && o.sent >= 0 && !o.failed {
			ss.polls = append(ss.polls, o)
		}
	}
	ss.polls = append(ss.polls, settle...)
	return ss, nil
}

// warmupLen is the discarded warm-up before each server's share of the
// nominal window: long enough for the first WAL segment, checkpoint files
// and the model's early adaptation to settle.
const warmupLen = 2 * time.Second

// stepLen is one ladder step; a search from near the result takes two to
// four steps.
const stepLen = time.Second

// ackLag is how long after a chunk step's end its last 202 may arrive
// before the step counts as backlogged.
const ackLag = 50 * time.Millisecond

// freshness returns, for each chunk accepted in the nominal window, the
// time from its due send until a poll first saw a published version
// covering it. The drainer publishes one version per tick in FIFO order,
// so the chunk accepted r-th is covered by version bootVersion+r.
func (g *gen) freshness(ss *session) []sample {
	var xs []sample
	for _, o := range ss.nominal {
		if o.kind != kIngest || o.failed {
			continue
		}
		want := g.bootVersion + uint64(o.rank)
		for _, p := range ss.polls {
			if p.sent >= o.sent && p.version >= want {
				xs = append(xs, sample{o.due, ms(p.done - o.due)})
				break
			}
		}
	}
	return xs
}

// counts returns the predict and ingest requests attempted and failed.
func counts(outs []outcome) (attempted, failed int) {
	for _, o := range outs {
		if o.kind == kPredict || o.kind == kIngest {
			attempted++
			if o.failed {
				failed++
			}
		}
	}
	return attempted, failed
}

// searchSteps caps the steps of one ladder search, so a run stays short
// when the result is far from where the search starts. A capped search
// returns the highest step that passed so far.
const searchSteps = 5

// search returns the index of the highest step of a fixed ladder that
// passes (a step passes when every lower one would), or -1 when none
// passed. It starts at step from and gallops (1, 2, 4, ... steps) up while
// steps pass or down while they fail, then bisects the bracket it found:
// a result within three steps of from is found exactly.
func search(steps []float64, from int, try func(rate float64) (bool, error)) (int, error) {
	lo, hi := -1, len(steps) // steps[lo] passed, steps[hi] failed
	next, stride := from, 1
	for n := 0; n < searchSteps && hi-lo > 1; n++ {
		ok, err := try(steps[next])
		if err != nil {
			return 0, err
		}
		if ok {
			lo = next
		} else {
			hi = next
		}
		switch {
		case hi == len(steps): // none failed yet: gallop up
			next = min(lo+stride, hi-1)
		case lo < 0: // none passed yet: gallop down
			next = max(hi-stride, 0)
		default:
			next = (lo + hi) / 2
		}
		stride *= 2
	}
	return lo, nil
}

// step runs one ladder step of chunks at ingestCPS with predicts at the
// nominal rate, once the ingest queue has drained. It builds the step's
// payloads first, while the server may still be working off the previous
// step. It returns the outcomes and the step's end.
func (g *gen) step(ingestCPS float64) ([]outcome, time.Duration, error) {
	items := g.schedule(g.w.predictRPS, ingestCPS, stepLen, stepPhase)
	if _, err := g.drain(30 * time.Second); err != nil {
		return nil, 0, err
	}
	start := g.since()
	outs, err := g.run(items)
	return outs, start + stepLen, err
}

// ingestStepOK: no failed request (a 503 queue_full included), no
// generator backlog (the last chunk acked within ackLag of the step's end)
// and no server backlog growth (the queue depth acked in the step's last
// tenth stays within a few ticks' worth of chunks).
func ingestStepOK(outs []outcome, end time.Duration, rate float64) bool {
	var last time.Duration
	var depth int64
	for _, o := range outs {
		if o.failed {
			return false
		}
		if o.kind != kIngest {
			continue
		}
		last = max(last, o.done)
		if o.due >= end-stepLen/10 {
			depth = max(depth, o.depth)
		}
	}
	return last <= end+ackLag && float64(depth) <= 8+0.05*rate
}

func runEndToEnd(bin, work string, w *workload, seed int64, window time.Duration, res *result) error {
	var setups []float64
	for i := 0; i < setupBoots-servers; i++ {
		srv, err := startServer(bin, work, w)
		if err != nil {
			return err
		}
		setups = append(setups, srv.setup.Seconds())
		if err := srv.stop(); err != nil {
			return fmt.Errorf("stopping set-up boot: %w", err)
		}
	}
	g := newGen(w, newStream(w, seed), seed)
	defer g.close()
	// Per-slice quantiles and window sums, pooled over the servers.
	var predictP50, predictP99, ackP50, ackP99, freshP50, freshP99 []slice
	var rss, maxCPS, late []float64
	var dCost, dChunks, errSum, errN float64
	top := w.ingestFrom // the chunk ladder's start step, then its last result
	var nPredict, nAck, nFresh int
	for i := 0; i < servers; i++ {
		srv, err := startServer(bin, work, w)
		if err != nil {
			return err
		}
		setups = append(setups, srv.setup.Seconds())
		err = func() error {
			defer srv.stop()
			// Write back what earlier runs left dirty in the page cache, so
			// the disk is not busy with it during this server's window.
			syscall.Sync()
			g.connect(srv.addr)
			ss, err := g.measure(window/servers, nil)
			if err != nil {
				return err
			}
			// Peak RSS of the nominal operation: the chunk ladder stores
			// many more chunks than the nominal rates would.
			peak, err := srv.peakRSSMiB()
			if err != nil {
				return err
			}
			rss = append(rss, peak)
			searchStart, steps := g.since(), 0
			try := func(rate float64) (bool, error) {
				steps++
				outs, end, err := g.step(rate)
				return err == nil && ingestStepOK(outs, end, rate), err
			}
			// The first search starts at the workload's start step, the
			// later ones at the previous result, which keeps a run short
			// when the result is far from the start step.
			if top, err = search(chunkLadder, max(top, 0), try); err != nil {
				return err
			}
			maxCPS = append(maxCPS, 0)
			if top >= 0 {
				maxCPS[i] = chunkLadder[top]
			}
			fmt.Printf("server %d: window from %.1fs with steal %.4f, chunk ladder %d steps in %.1fs -> %.4g chunks/s\n",
				i, ss.windowStart.Seconds(), ss.steal.share(ss.windowStart, ss.windowStart+ss.windowLen),
				steps, (g.since() - searchStart).Seconds(), maxCPS[i])
			dep, _, err := g.finish(ss, res)
			if err != nil {
				return err
			}
			dep.Shutdown()

			pl, al, fr := latencies(ss.nominal, kPredict), latencies(ss.nominal, kIngest), g.freshness(ss)
			nPredict, nAck, nFresh = nPredict+len(pl), nAck+len(al), nFresh+len(fr)
			late = append(late, lateness(ss.nominal)...)
			q := func(xs []sample, q float64) []slice {
				return sliceQuantiles(xs, ss.windowStart, ss.windowLen, q, ss.steal)
			}
			predictP50, predictP99 = append(predictP50, q(pl, 0.5)...), append(predictP99, q(pl, 0.99)...)
			ackP50, ackP99 = append(ackP50, q(al, 0.5)...), append(ackP99, q(al, 0.99)...)
			freshP50, freshP99 = append(freshP50, q(fr, 0.5)...), append(freshP99, q(fr, 0.99)...)
			dCost += ss.statsB.CostSeconds - ss.statsA.CostSeconds
			dChunks += float64(ss.statsB.Chunks - ss.statsA.Chunks)
			sum, n := windowErrorSum(ss.statsA, ss.statsB)
			errSum, errN = errSum+sum, errN+n
			attempted, failed := counts(ss.nominal)
			res.Attempted, res.Failed = res.Attempted+attempted, res.Failed+failed
			return srv.stop()
		}()
		if err != nil {
			return err
		}
	}

	res.set("setup_s", median(setups), "s")
	res.set("predict_p50_ms", quietMedian(predictP50), "ms")
	res.note("predict_p99_ms", quietMedian(predictP99), "ms")
	res.note("harness.gen_late_p50_ms", quantile(late, 0.5), "ms")
	res.note("harness.gen_late_p99_ms", quantile(late, 0.99), "ms")
	res.note("ingest_ack_p50_ms", quietMedian(ackP50), "ms")
	res.note("ingest_ack_p99_ms", quietMedian(ackP99), "ms")
	res.note("freshness_p50_ms", quietMedian(freshP50), "ms")
	res.note("freshness_p99_ms", quietMedian(freshP99), "ms")
	res.set("ingest_max_cps", median(maxCPS), "chunks/s")
	res.set("cost_per_chunk_ms", 1000*dCost/dChunks, "ms")
	res.set("prequential_error", errSum/errN, "ratio")
	res.set("ops_ok_ratio", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
	res.set("server_peak_rss_mb", median(rss), "MiB")
	fmt.Printf("samples predicts=%d acks=%d freshness=%d over %d servers × %v\n",
		nPredict, nAck, nFresh, servers, window/servers)
	return nil
}

// finish drains the server and runs the correctness checks that hold
// after every run:
//   - every 2xx predict answered served+dropped == records sent with one
//     prediction per served record (checked as responses arrive);
//   - the async ingest path failed no tick, and chunks_ingested rose by
//     exactly the number of 202s;
//   - with a WAL, every appended chunk was applied or aborted;
//   - the server's answers to a fixed probe batch equal, bit for bit,
//     those of an in-process deployer restored from the served snapshot.
//
// It returns the in-process deployer (the caller shuts it down) and the
// served frame it was restored from.
func (g *gen) finish(ss *session, res *result) (*core.Deployer, snapstream.Frame, error) {
	st, err := g.drain(60 * time.Second)
	if err != nil {
		return nil, snapstream.Frame{}, err
	}
	res.check(g.badPredicts.Load() == 0, "%d predict responses broke served+dropped == sent (first: %v)",
		g.badPredicts.Load(), g.badDetail.Load())
	res.check(st.IngestAsyncErrors == 0, "ingest_async_errors = %d", st.IngestAsyncErrors)
	var end statsDoc
	if err := g.getJSON(statsPath, &end); err != nil {
		return nil, snapstream.Frame{}, err
	}
	acked := g.accepted.Load()
	res.check(end.Chunks-ss.bootStats.Chunks == acked,
		"chunks_ingested rose by %d, but %d chunks were acknowledged with 202", end.Chunks-ss.bootStats.Chunks, acked)
	if g.w.wal {
		if st.WAL == nil {
			res.check(false, "WAL workload's /status has no wal section")
		} else {
			res.check(st.WAL.AppendedTotal == st.WAL.AppliedTotal+st.WAL.AbortedTotal,
				"WAL appended_total %d != applied_total %d + aborted_total %d",
				st.WAL.AppendedTotal, st.WAL.AppliedTotal, st.WAL.AbortedTotal)
		}
	}
	f, err := g.servedFrame()
	if err != nil {
		return nil, f, err
	}
	dep, err := restore(g.w, f)
	if err != nil {
		return nil, f, err
	}
	if err := g.probe(dep, res); err != nil {
		dep.Shutdown()
		return nil, f, err
	}
	return dep, f, nil
}

// servedFrame fetches the served snapshot frame.
func (g *gen) servedFrame() (snapstream.Frame, error) {
	resp, err := g.get(snapshotPath)
	if err != nil {
		return snapstream.Frame{}, err
	}
	if resp.status != 200 {
		return snapstream.Frame{}, fmt.Errorf("GET %s: status %d", snapshotPath, resp.status)
	}
	return snapstream.DecodeFrame("served snapshot", resp.body)
}

// restore builds a fresh in-process deployer from the workload's
// configuration and restores frame f into it.
func restore(w *workload, f snapstream.Frame) (*core.Deployer, error) {
	dep, err := core.NewDeployer(deployConfig(w))
	if err != nil {
		return nil, err
	}
	if err := dep.SnapshotSink().Apply(f); err != nil {
		dep.Shutdown()
		return nil, fmt.Errorf("restoring served snapshot: %w", err)
	}
	if dep.Current().Version() != f.Version {
		dep.Shutdown()
		return nil, fmt.Errorf("restored version %d, frame version %d", dep.Current().Version(), f.Version)
	}
	return dep, nil
}

// probe compares the server's predictions for the probe batch with dep's,
// bit for bit, and checks the served version did not move meanwhile.
func (g *gen) probe(dep *core.Deployer, res *result) error {
	recs := g.s.chunk(predictBase - 1) // no phase sends this chunk
	want, err := dep.Predict(recs)
	if err != nil {
		return err
	}
	resp, err := g.lanes[0].do("POST", predictPath, "", bytes.Join(recs, []byte("\n")), requestTimeout)
	if err != nil {
		return err
	}
	if resp.status != 200 {
		return fmt.Errorf("probe predict: status %d: %s", resp.status, resp.body)
	}
	var pr struct {
		Predictions []float64 `json:"predictions"`
	}
	if err := json.Unmarshal(resp.body, &pr); err != nil {
		return err
	}
	v, err := g.version()
	if err != nil {
		return err
	}
	res.check(v == dep.Current().Version(), "served version moved from %d to %d during the probe", dep.Current().Version(), v)
	same := len(pr.Predictions) == len(want)
	for i := 0; same && i < len(want); i++ {
		same = math.Float64bits(pr.Predictions[i]) == math.Float64bits(want[i])
	}
	res.check(same, "server's probe predictions differ from the restored snapshot's (%d vs %d values)",
		len(pr.Predictions), len(want))
	return nil
}
