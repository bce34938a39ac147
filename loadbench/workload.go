package main

import (
	"fmt"
	"time"

	"cdml"
	"cdml/datasets"
	"cdml/internal/core"
	"cdml/internal/sched"
)

// workload is one traffic mix against one server configuration. Rates are
// open-loop arrival rates.
type workload struct {
	name   string
	warmup int // cdml-serve -warmup chunks
	rows   int // records per chunk (cdml-serve -rows)
	batch  int // records per predict request

	predictRPS float64 // nominal predict rate
	ingestCPS  float64 // nominal async-ingest chunk rate
	wal        bool    // run with -wal-dir and -checkpoint-dir on the checkout's disk
	minTrain   time.Duration

	ingestFrom int // the chunkLadder step its first search starts from
}

// chunkLadder is the fixed chunk-rate steps (chunks/s) searched, once per
// measuring server, for the highest chunk rate the server sustains
// (ingest_max_cps): 150·1.05^k for k = 0 … 39.
var chunkLadder = func() []float64 {
	out := make([]float64, 40)
	for i, r := 0, 150.0; i < len(out); i, r = i+1, r*1.05 {
		out[i] = r
	}
	return out
}()

var workloads = []*workload{
	{
		// Read-heavy: the sparse text path (parser → feature hasher → SVM
		// dot) dominates; a trickle of async ingest swaps snapshots under
		// the reads.
		name: "serve-url", warmup: 20, rows: 80, batch: 8,
		predictRPS: 1000, ingestCPS: 50, minTrain: 2 * time.Second,
		ingestFrom: 24,
	},
	{
		// Write-heavy: WAL fsync before each 202, the tick stages, publish
		// and checkpoint encode/write on the same disk, with a short
		// proactive-training floor so training shows as a tick stage.
		name: "ingest-url-wal", warmup: 20, rows: 80, batch: 8,
		predictRPS: 50, ingestCPS: 100, wal: true, minTrain: 200 * time.Millisecond,
		ingestFrom: 21,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Chunk indices. The server trained on chunks [0, warmup) of the stream
// its generator configuration defines; the benchmark continues that same
// stream (same concept, so the served model is not facing a different
// problem) past them, at a position the seed picks: ingested chunk k of
// seed s is chunk warmup + s·seedStride + k, and predict batches are cut
// from chunks predictBase + s·seedStride upward. Every chunk is generated
// fresh, nothing is sent twice, and no seed's range reaches the next
// region.
const (
	seedStride  = 100
	seedRange   = 1000 // seeds are taken modulo seedRange
	predictBase = 200_000
)

// stream generates the benchmark's records with the generator
// configuration cdml-serve warms up with (cmd/cdml-serve
// buildWorkloadConfig). Only the stream's length differs: the server sizes
// it to its warm-up, the benchmark to every chunk it may send. That length
// is also the stream's drift period, so a long one keeps the concept the
// server trained on instead of drifting it per seed.
type stream struct {
	chunk  func(i int) [][]byte
	offset int // s·seedStride
	// The chunk predict batches are being cut from; consecutive batches
	// share it.
	cutIdx  int
	cutRecs [][]byte
}

func newStream(w *workload, seed int64) *stream {
	cfg := datasets.DefaultURLConfig()
	cfg.Days = 1_000_000
	cfg.RowsPerChunk = w.rows
	cfg.Vocab = 5000
	cfg.HashDim = 1 << 15
	return &stream{
		chunk:  datasets.NewURL(cfg).Chunk,
		offset: int(((seed%seedRange)+seedRange)%seedRange) * seedStride,
		cutIdx: -1,
	}
}

// ingestChunk returns the records of the k-th ingested chunk.
func (s *stream) ingestChunk(w *workload, k int) [][]byte { return s.chunk(w.warmup + s.offset + k) }

// predictBatch returns the j-th predict batch's records.
func (s *stream) predictBatch(w *workload, j int) [][]byte {
	per := w.rows / w.batch
	if idx := predictBase + s.offset + j/per; idx != s.cutIdx {
		s.cutIdx, s.cutRecs = idx, s.chunk(idx)
	}
	off := (j % per) * w.batch
	return s.cutRecs[off : off+w.batch]
}

// deployConfig mirrors the configuration cdml-serve builds for the
// workload's pipeline (cmd/cdml-serve buildWorkloadConfig), so an
// in-process deployer restored from the served snapshot frame behaves like
// the served deployment.
func deployConfig(w *workload) core.Config {
	const hashDim = 1 << 15
	return core.Config{
		Mode:         cdml.ModeContinuous,
		NewPipeline:  func() *cdml.Pipeline { return datasets.NewURLPipeline(hashDim) },
		NewModel:     func() cdml.Model { return datasets.NewURLModel(hashDim, 1e-3) },
		NewOptimizer: func() cdml.Optimizer { return cdml.NewAdam(0.05) },
		Metric:       &cdml.Misclassification{},
		Predict:      cdml.ClassifyPredictor,
		Store:        cdml.NewStore(cdml.NewMemoryBackend()),
		Sampler:      cdml.NewTimeSampler(1),
		SampleChunks: 8,
		Scheduler:    sched.NewDynamic(2.0, w.minTrain),
	}
}

// serverArgs are the cdml-serve flags of the workload. dir is a fresh
// directory for this server process's durable state.
func serverArgs(w *workload, addr, dir string) []string {
	args := []string{
		"-workload", "url",
		"-addr", addr,
		"-warmup", fmt.Sprint(w.warmup),
		"-rows", fmt.Sprint(w.rows),
		"-min-train-interval", w.minTrain.String(),
		"-runtime-metrics", "1s",
	}
	if w.wal {
		args = append(args,
			"-wal-dir", dir+"/wal",
			"-checkpoint-dir", dir+"/ckpt",
			"-checkpoint-every", fmt.Sprint(checkpointEvery))
	}
	return args
}

// checkpointEvery is the WAL workload's -checkpoint-every: a checkpoint
// every quarter second at the nominal chunk rate.
const checkpointEvery = 25
