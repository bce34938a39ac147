package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator is open loop: every phase's send times are computed
// before the phase starts (Poisson arrivals from the run's seed; evenly
// spaced chunks in a ladder step), and each
// request is timed from its due time, so a stall that delays later sends is
// charged to the requests it delays. Two lanes, one connection each, carry
// the requests: predicts on the first, everything else on the second, so a
// predict never waits on its connection behind a chunk's WAL fsync or a
// version poll.

type kind uint8

const (
	kPredict kind = iota
	kIngest
	kPoll
	kTrace // traced run only: fetch the server's recent tick spans
)

// item is one scheduled request; due is relative to the phase start.
type item struct {
	due  time.Duration
	kind kind
	idx  int // global predict-batch or ingest-chunk index
}

// outcome is what happened to one item. Times are offsets from the run's
// epoch; sent < 0 marks a poll that was skipped.
type outcome struct {
	kind      kind
	idx       int
	due       time.Duration
	sent      time.Duration
	done      time.Duration
	status    int
	failed    bool
	handlerMS float64 // predict: the server's own handling time
	depth     int64   // ingest 202: queue depth after the enqueue
	rank      int64   // ingest 202: acceptance order, 1-based
	version   uint64  // poll: published snapshot version
	body      []byte  // trace: the response body
}

const (
	// predictLane carries the predicts and nothing else.
	predictLane    = 0
	requestTimeout = 5 * time.Second
	pollEvery      = time.Millisecond
	// spinBefore is how early the lane stops sleeping and spins to the due
	// time: nanosleep overshoots by tens of microseconds, time.Sleep by about
	// half a millisecond, both comparable to a predict's service time.
	spinBefore = 100 * time.Microsecond
)

const (
	predictPath  = "/v1/deployments/default/predict"
	ingestPath   = "/v1/deployments/default/ingest"
	statsPath    = "/v1/deployments/default/stats"
	statusPath   = "/v1/deployments/default/status"
	snapshotPath = "/v1/deployments/default/snapshot"
	tracePath    = "/v1/deployments/default/trace?n=64"
	// versionPath answers 304 with the current X-Snapshot-Version: no
	// snapshot is newer than the largest version.
	versionPath = snapshotPath + "?since=18446744073709551615"
)

// gen drives one server over two lanes, one connection each.
type gen struct {
	w     *workload
	s     *stream
	seed  int64
	lanes [2]*conn
	epoch time.Time

	// Payloads of the phase being prepared or run, by global index.
	predictBase, ingestBase int
	predictBodies           [][]byte
	ingestBodies            [][]byte
	nextPredict, nextIngest int

	accepted    atomic.Int64  // ingest 202s so far
	lastVersion atomic.Uint64 // highest snapshot version a poll has seen
	bootVersion uint64        // snapshot version before the first ingest

	traced bool // scrape /v1/metrics around the nominal window

	badPredicts atomic.Int64 // 2xx predicts violating served+dropped == sent
	badDetail   atomic.Value // string
	phaseSeq    int64
}

func newGen(w *workload, s *stream, seed int64) *gen {
	return &gen{w: w, s: s, seed: seed, epoch: time.Now()}
}

// connect points the generator at a freshly started server: new lanes,
// and the server's count of accepted chunks restarted. The input stream
// carries on, so no record is sent twice.
func (g *gen) connect(addr string) {
	g.close()
	for i := range g.lanes {
		g.lanes[i] = &conn{addr: addr}
	}
	g.accepted.Store(0)
}

func (g *gen) close() {
	for _, c := range g.lanes {
		if c != nil {
			c.close()
		}
	}
}

func (g *gen) since() time.Duration { return time.Since(g.epoch) }

// arrivals returns Poisson arrival offsets at rate per second over d.
func arrivals(r *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	if rate <= 0 {
		return out
	}
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// evenArrivals returns arrival offsets spaced 1/rate apart over d.
func evenArrivals(rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for k := 1; float64(k)/rate < d.Seconds(); k++ {
		out = append(out, time.Duration(float64(k)/rate*float64(time.Second)))
	}
	return out
}

// phaseKind selects how a phase schedules its requests.
type phaseKind uint8

const (
	warmPhase   phaseKind = iota // Poisson predicts and chunks
	windowPhase                  // as warmPhase, plus version polls every pollEvery
	// stepPhase sends its chunks evenly spaced: a ladder step asks whether
	// the server keeps up with a rate, and Poisson bursts within a
	// one-second step would make the answer depend on the generator's draw.
	stepPhase
)

// schedule builds a phase of length d: predicts as Poisson arrivals at
// predictRPS and chunks at ingestCPS, as the phase kind says. It generates
// the phase's payloads before returning, so no record is built while the
// phase runs.
func (g *gen) schedule(predictRPS, ingestCPS float64, d time.Duration, pk phaseKind) []item {
	g.phaseSeq++
	r := rand.New(rand.NewSource(g.seed*1_000_003 + g.phaseSeq))
	var items []item
	pa := arrivals(r, predictRPS, d)
	g.predictBase, g.predictBodies = g.nextPredict, g.predictBodies[:0]
	for _, t := range pa {
		items = append(items, item{due: t, kind: kPredict, idx: g.nextPredict})
		g.predictBodies = append(g.predictBodies, joinRecords(g.s.predictBatch(g.w, g.nextPredict)))
		g.nextPredict++
	}
	var ia []time.Duration
	if pk == stepPhase {
		ia = evenArrivals(ingestCPS, d)
	} else {
		ia = arrivals(r, ingestCPS, d)
	}
	g.ingestBase, g.ingestBodies = g.nextIngest, g.ingestBodies[:0]
	for _, t := range ia {
		items = append(items, item{due: t, kind: kIngest, idx: g.nextIngest})
		g.ingestBodies = append(g.ingestBodies, joinRecords(g.s.ingestChunk(g.w, g.nextIngest)))
		g.nextIngest++
	}
	if pk == windowPhase {
		for t := pollEvery; t < d; t += pollEvery {
			items = append(items, item{due: t, kind: kPoll})
		}
	}
	sortByDue(items)
	return items
}

func sortByDue(items []item) {
	slices.SortStableFunc(items, func(a, b item) int { return int(a.due - b.due) })
}

func joinRecords(recs [][]byte) []byte {
	n := 0
	for _, r := range recs {
		n += len(r) + 1
	}
	b := make([]byte, 0, n)
	for i, r := range recs {
		if i > 0 {
			b = append(b, '\n')
		}
		b = append(b, r...)
	}
	return b
}

// run executes a scheduled phase and returns the outcomes. One
// dispatcher sends each item at its due time on its kind's lane
// (predictLane for predicts, the other lane for the rest), never waiting
// for a response: requests pipeline on the two connections, so a slow server shows as latency growth rather
// than as a generator that stops sending. One reader per lane takes the
// responses in order. A transport error aborts the run.
func (g *gen) run(items []item) ([]outcome, error) {
	// The generator collects its garbage before a phase and not during it,
	// so its GC never competes with the server for the CPUs while requests
	// are being timed. A phase allocates a few tens of MiB at most.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([]outcome, len(items))
	start := g.since()
	type lane struct {
		c        *conn
		inflight chan int
		err      error
	}
	var lanes [2]lane
	var wg sync.WaitGroup
	for i := range lanes {
		l := &lanes[i]
		l.c = g.lanes[i]
		l.inflight = make(chan int, len(items)) // never blocks the dispatcher
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range l.inflight {
				if l.err != nil {
					continue
				}
				resp, err := l.c.recv(requestTimeout)
				if err != nil {
					l.err = fmt.Errorf("reading response: %w", err)
					out[i].failed = true
					continue
				}
				g.record(&out[i], resp)
			}
		}()
	}
	var sendErr error
	for i := range items {
		it, o := &items[i], &out[i]
		o.kind, o.idx, o.due, o.sent = it.kind, it.idx, start+it.due, -1
		if sendErr != nil {
			continue
		}
		// Polls and trace fetches need no microsecond precision: they
		// skip the spin.
		g.waitUntil(o.due, it.kind == kPredict || it.kind == kIngest)
		if it.kind == kPoll &&
			(g.since()-o.due > pollEvery || g.lastVersion.Load() >= g.bootVersion+uint64(g.accepted.Load())) {
			// Polls only measure freshness: skip one that fell behind or
			// that could only confirm what is known.
			continue
		}
		l := &lanes[1-predictLane]
		if it.kind == kPredict {
			l = &lanes[predictLane]
		}
		o.sent = g.since()
		var err error
		switch it.kind {
		case kPredict:
			err = l.c.send("POST", predictPath, "", g.predictBodies[it.idx-g.predictBase], requestTimeout)
		case kIngest:
			err = l.c.send("POST", ingestPath, "", g.ingestBodies[it.idx-g.ingestBase], requestTimeout)
		case kPoll:
			err = l.c.send("GET", versionPath, "", nil, requestTimeout)
		case kTrace:
			err = l.c.send("GET", tracePath, "", nil, requestTimeout)
		}
		if err != nil {
			sendErr = fmt.Errorf("sending request: %w", err)
			o.failed = true
			continue
		}
		l.inflight <- i
	}
	for i := range lanes {
		close(lanes[i].inflight)
	}
	wg.Wait()
	err := sendErr
	for i := range lanes {
		if err == nil {
			err = lanes[i].err
		}
		if lanes[i].err != nil {
			lanes[i].c.close()
		}
	}
	return out, err
}

// waitUntil blocks until the epoch offset t: nanosleep (which wakes within
// tens of microseconds, unlike the runtime timer) to t, or, with spin, to
// spinBefore ahead of t and a spin for the rest.
func (g *gen) waitUntil(t time.Duration, spin bool) {
	lead := time.Duration(0)
	if spin {
		lead = spinBefore
	}
	for d := t - g.since(); d > lead; d = t - g.since() {
		ts := syscall.NsecToTimespec(int64(d - lead))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop re-checks
	}
	for g.since() < t {
	}
}

// record fills in o from its response.
func (g *gen) record(o *outcome, resp response) {
	o.done = g.since()
	o.status = resp.status
	switch o.kind {
	case kPredict:
		if resp.status != 200 {
			o.failed = true
			return
		}
		var pr struct {
			Predictions []float64 `json:"predictions"`
			Served      int       `json:"served"`
			Dropped     int       `json:"dropped"`
			LatencyMS   float64   `json:"latency_ms"`
		}
		if err := json.Unmarshal(resp.body, &pr); err != nil {
			g.noteBadPredict(fmt.Sprintf("undecodable predict response: %v", err))
			return
		}
		if pr.Served+pr.Dropped != g.w.batch || len(pr.Predictions) != pr.Served {
			g.noteBadPredict(fmt.Sprintf("predict of %d records answered served=%d dropped=%d with %d predictions",
				g.w.batch, pr.Served, pr.Dropped, len(pr.Predictions)))
		}
		o.handlerMS = pr.LatencyMS
	case kIngest:
		if resp.status != 202 {
			o.failed = true
			return
		}
		var ir struct {
			QueueDepth int64 `json:"queue_depth"`
		}
		if err := json.Unmarshal(resp.body, &ir); err != nil {
			o.failed = true
			return
		}
		o.depth = ir.QueueDepth
		o.rank = g.accepted.Add(1)
	case kTrace:
		o.failed = resp.status != 200
		o.body = slices.Clone(resp.body)
	case kPoll:
		if resp.status != 304 {
			o.failed = true
			return
		}
		o.version = resp.version
		for {
			v := g.lastVersion.Load()
			if resp.version <= v || g.lastVersion.CompareAndSwap(v, resp.version) {
				break
			}
		}
	}
}

func (g *gen) noteBadPredict(msg string) {
	g.badPredicts.Add(1)
	g.badDetail.CompareAndSwap(nil, msg)
}

// get issues one control request (stats, status, version) on lane 0
// between phases and returns a copy of the body.
func (g *gen) get(path string) (response, error) {
	resp, err := g.lanes[0].do("GET", path, "", nil, requestTimeout)
	if err != nil {
		return resp, fmt.Errorf("GET %s: %w", path, err)
	}
	resp.body = slices.Clone(resp.body)
	return resp, nil
}

func (g *gen) getJSON(path string, v any) error {
	resp, err := g.get(path)
	if err != nil {
		return err
	}
	if resp.status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.status, resp.body)
	}
	return json.Unmarshal(resp.body, v)
}

// version reads the published snapshot version.
func (g *gen) version() (uint64, error) {
	resp, err := g.get(versionPath)
	if err != nil {
		return 0, err
	}
	if resp.status != 304 {
		return 0, fmt.Errorf("GET %s: status %d", versionPath, resp.status)
	}
	return resp.version, nil
}

// settle polls the published version until it covers every chunk accepted
// so far (or the deadline passes) and returns the polls as outcomes.
func (g *gen) settle(deadline time.Duration) ([]outcome, error) {
	var out []outcome
	want := g.bootVersion + uint64(g.accepted.Load())
	end := g.since() + deadline
	for g.since() < end {
		o := outcome{kind: kPoll, due: g.since()}
		o.sent = o.due
		v, err := g.version()
		if err != nil {
			return out, err
		}
		o.done, o.version, o.status = g.since(), v, 304
		out = append(out, o)
		if v >= want {
			return out, nil
		}
		g.waitUntil(g.since()+pollEvery, false)
	}
	return out, fmt.Errorf("published version did not reach %d within %v", want, deadline)
}

// statusDoc is the part of /status the benchmark reads.
type statusDoc struct {
	SnapshotVersion   uint64 `json:"snapshot_version"`
	IngestQueueDepth  int64  `json:"ingest_queue_depth"`
	IngestAsyncErrors int64  `json:"ingest_async_errors"`
	WAL               *struct {
		AppendedTotal uint64 `json:"appended_total"`
		AppliedTotal  uint64 `json:"applied_total"`
		AbortedTotal  uint64 `json:"aborted_total"`
	} `json:"wal"`
}

// drain waits until the server's ingest queue is empty and returns the
// final status.
func (g *gen) drain(deadline time.Duration) (statusDoc, error) {
	end := g.since() + deadline
	for {
		var st statusDoc
		if err := g.getJSON(statusPath, &st); err != nil {
			return st, err
		}
		if st.IngestQueueDepth == 0 {
			return st, nil
		}
		if g.since() > end {
			return st, fmt.Errorf("ingest queue still holds %d chunks after %v", st.IngestQueueDepth, deadline)
		}
		g.waitUntil(g.since()+2*time.Millisecond, false)
	}
}

// statsDoc is /stats.
type statsDoc struct {
	CumulativeError float64 `json:"cumulative_error"`
	Evaluated       int64   `json:"evaluated"`
	CostSeconds     float64 `json:"cost_seconds"`
	Mu              float64 `json:"materialization_utilization"`
	Chunks          int64   `json:"chunks_ingested"`
	ProactiveRuns   int     `json:"proactive_runs"`
}

// windowErrorSum returns the misclassification sum and count of the
// chunks evaluated between two /stats reads: the rate is a mean, so its
// window sum is the difference of error·count.
func windowErrorSum(a, b statsDoc) (sum, n float64) {
	return b.CumulativeError*float64(b.Evaluated) - a.CumulativeError*float64(a.Evaluated),
		float64(b.Evaluated - a.Evaluated)
}

// metricsText fetches /v1/metrics and returns the value of each unlabeled
// or deployment-labeled sample by family name (first occurrence).
func (g *gen) metricsText() (map[string]float64, error) {
	resp, err := g.get("/v1/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range bytes.Split(resp.body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := string(line[:sp])
		if i := bytes.IndexByte(line[:sp], '{'); i >= 0 {
			name = string(line[:i])
		}
		if _, seen := out[name]; seen {
			continue
		}
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err == nil {
			out[name] = v
		}
	}
	return out, nil
}
