// Command loadbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds it and cdml-serve from the checkout), then
// drives a real cdml-serve over loopback with an open-loop load generator,
// checks the answers, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports per-layer metrics by calling each layer's
// public functions in process on the served state. LAYERS.md maps each
// per-layer row to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems lists failed correctness checks (printed, not in the JSON).
	problems []string
	// info holds measured values printed for the reader but left out of
	// the JSON: their run-to-run spread on the reference machine is wider
	// than any bound a benchmark metric may have (see LAYERS.md).
	info map[string]metric
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(name string, v float64, unit string) {
	r.info[name] = metric{Value: v, Unit: unit}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func printMetrics(prefix string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s%-36s %14.6g %s\n", prefix, n, ms[n].Value, ms[n].Unit)
	}
}

func main() {
	root := flag.String("root", ".", "checkout root (holds .bench_build)")
	bin := flag.String("server", "", "cdml-serve binary")
	name := flag.String("workload", "", "workload: serve-url | ingest-url-wal")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the measured nominal window in seconds, split across the measuring servers (a traced run measures it on one)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	if err := run(*root, *bin, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
}

func run(root, bin, name string, seed int64, seconds int, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if bin == "" || seconds < 1 {
		return fmt.Errorf("need -server and -seconds >= 1")
	}
	base := filepath.Join(root, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	prov := provenance(root, work, seed)
	prov["workload"], prov["trace"], prov["seconds"] = w.name, traced, seconds
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)

	stealBefore, totalBefore := cpuSteal()
	res := &result{Metrics: map[string]metric{}, info: map[string]metric{}, Correct: true}
	window := time.Duration(seconds) * time.Second
	if traced {
		err = runTraced(bin, work, w, seed, window, res)
	} else {
		err = runEndToEnd(bin, work, w, seed, window, res)
	}
	if err != nil {
		return err
	}
	// CPU time the hypervisor gave to other guests during the run: the
	// share of the machine this run could not use.
	stealAfter, totalAfter := cpuSteal()
	fmt.Printf("steal_ratio %.4f\n", float64(stealAfter-stealBefore)/float64(max(totalAfter-totalBefore, 1)))
	for _, p := range res.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	res.Correct = len(res.problems) == 0
	printMetrics("", res.Metrics)
	printMetrics("info ", res.info)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
