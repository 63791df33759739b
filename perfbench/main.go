// Command perfbench is the repository's benchmark: four closed-loop
// workloads that climb the layer ladder from the paper's filter to the
// multi-tenant daemon, each checked for correctness against the
// benchmark's own record of what it inserted and deleted.
//
// Run one workload from the repository root:
//
//	bash perfbench/run.sh --workload lib_churn --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is the result:
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}. With --trace 1
// the run records spans in the benchmark's own code, runs the per-layer
// ladder probes, prints the per-layer table on standard error and writes
// the spans under .bench_build/traces. --workload all runs every
// workload, each in its own process; --steadiness N runs each workload
// N times in each of two sets (distinct seeds) and prints the spread.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one entry of the benchmark.
type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{"lib_churn", libChurn},
	{"store_churn", storeChurn},
	{"served_mixed", servedMixed},
	{"served_tenants", servedTenants},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is everything a workload run depends on.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // per-run data directory, removed after the run
	sizes    sizes
	tracer   *tracer // non-nil in traced runs
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int64
	opErr             error // first failed operation, for the log
	checks            verdict
	endToEnd          map[string]metric
	perLayer          map[string]metric
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

func (o *outcome) e2e(name string, v float64, unit string) {
	o.endToEnd[name] = metric{v, unit}
}

func (o *outcome) layer(name string, v float64, unit string) {
	o.perLayer[name] = metric{v, unit}
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// discardLog silences the store's and server's operational logging,
// which would otherwise interleave with the result on a terminal.
var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

func main() {
	var (
		name       = flag.String("workload", "", "workload: lib_churn, store_churn, served_mixed, served_tenants or all")
		seed       = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds    = flag.Float64("seconds", 12, "length of the timed steady phase")
		trace      = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		steadiness = flag.Int("steadiness", 0, "run every workload this many times in each of two sets and report the spread")
	)
	flag.Parse()
	if *steadiness > 0 {
		os.Exit(steadinessMode(*steadiness, *seed, *seconds))
	}
	if *name == "all" {
		os.Exit(allMode(*seed, *seconds, *trace == 1))
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(runOne(w, *seed, *seconds, *trace == 1, os.Stdout))
}

// runOne runs a workload in this process and prints its result; the exit
// code is 0 only when every correctness check passed.
func runOne(w workload, seed uint64, seconds float64, trace bool, stdout io.Writer) int {
	rc := runConfig{
		workload: w.name,
		seed:     seed,
		seconds:  seconds,
		trace:    trace,
		sizes:    sizesFor(w.name, false),
		dir:      filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
	}
	if trace {
		rc.tracer = newTracer()
	}
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(rc.dir)
	out, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out.e2e("peak_rss_mb", peakRSSMiB(), "MiB")
	if n := out.checks.estimateOverflows; n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d elastic EstimateCount answers overflowed to a negative number (a known fault, not failed)\n", w.name, n)
	}
	if out.opErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d operations failed, first: %v\n", w.name, out.failed, out.opErr)
	}
	stamp := hostStamp(seed, w.name)
	res := result{Correct: out.checks.ok(), Attempted: out.attempted, Failed: out.failed, Metrics: out.endToEnd}
	if trace {
		res.Metrics = out.perLayer
		path, err := rc.tracer.write(w.name, seed, stamp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		printLayerTable(os.Stderr, out.perLayer, rc.tracer)
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed:\n%v\n", w.name, out.checks.err())
	}
	fmt.Fprintf(stdout, "host %s\n", mustJSON(stamp))
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rb)
	if !res.Correct {
		return 1
	}
	return 0
}

// buildDir holds everything a run leaves behind; the repository ignores it.
const buildDir = ".bench_build"

// sortedNames returns the metric names of m in order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stamp identifies the host, toolchain and code a result came from.
type stamp struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	GOOS     string `json:"goos"`
	GOARCH   string `json:"goarch"`
	CPU      string `json:"cpu"`
	NProc    int    `json:"nproc"`
	Go       string `json:"go"`
	Commit   string `json:"commit"`
	Time     string `json:"time"`
}

func hostStamp(seed uint64, name string) stamp {
	return stamp{
		Workload: name,
		Seed:     seed,
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		CPU:      cpuModel(),
		NProc:    runtime.NumCPU(),
		Go:       runtime.Version(),
		Commit:   commit(),
		Time:     time.Now().UTC().Format(time.RFC3339),
	}
}
