// Command perfbench is gpuvar's benchmark. It drives one named workload
// against the code in the current checkout, checks every output it
// receives, and prints one JSON result line as the last line of its
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	burst-hot   open loop over traffic.Generate's bursty default mix
//	            against one primed gpuvard: the response-cache hit path
//	sweep-miss  open-loop Poisson sweeps and estimates whose keys never
//	            repeat: the simulator, estimator and cache write path
//	paper-full  the whole figure catalog at paper fidelity in a child
//	            process: figures, core and sim at Summit scale
//
// With -trace 0 the metrics are the end-to-end set (latency, set-up
// time, capacity, memory). With -trace 1 the window is repeated with
// spans recorded around the benchmark's calls into each layer, followed
// by a short segment on two peered gpuvard replicas and an in-process
// probe of each layer's public functions, and the metrics are the
// per-layer set. Run it through run.sh, which builds gpuvard and this
// program from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// nproc is the connection and worker bound of every workload: the
// benchmark machine's core count, fixed so that inputs and load do not
// depend on the host.
const nproc = 2

// env is one run's configuration plus its span recorder.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	gpuvard string
	out     string
	self    string // this binary, for child processes
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted int
	failed    int
	firstErr  string
	e2e       metrics // end-to-end metrics (untraced window)
	layer     metrics // per-layer metrics (trace runs only)
}

func (o *outcome) fail(format string, a ...any) {
	o.failed++
	if o.firstErr == "" {
		o.firstErr = fmt.Sprintf(format, a...)
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"burst-hot":  runBurstHot,
	"sweep-miss": runSweepMiss,
	"paper-full": runPaperFull,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: burst-hot, sweep-miss or paper-full")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 30, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run that reports the per-layer metrics")
		gpuvard = flag.String("gpuvard", "", "gpuvard binary under test")
		out     = flag.String("out", ".bench_build", "directory for span dumps")
		child   = flag.String("child", "", "internal: run as a catalog child process (paper)")
	)
	flag.Parse()
	if *child != "" {
		os.Exit(runChild(*child, *seed, *seconds, *trace == 1, *out))
	}

	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatalf("unknown -workload %q (known: %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if *seed == 0 {
		fatalf("-seed must be positive")
	}
	// The generator shares the machine with the servers it drives; a
	// larger GC target keeps its own collections out of their way.
	debug.SetGCPercent(400)
	self, err := os.Executable()
	if err != nil {
		fatalf("locating own binary: %v", err)
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, gpuvard: *gpuvard, out: *out, self: self}
	if _, err := os.Stat(e.gpuvard); err != nil {
		fatalf("-gpuvard: %v", err)
	}
	if err := os.MkdirAll(filepath.Join(e.out, "traces"), 0o755); err != nil {
		fatalf("creating output directory: %v", err)
	}

	o, err := run(e)
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	rep := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics{}}
	if o.failed > 0 {
		// A run with any failure or mismatch reports no numbers.
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d failed; first: %s\n", o.failed, o.attempted, o.firstErr)
		printReport(rep)
		os.Exit(1)
	}
	if e.trace {
		rep.Metrics = o.layer
	} else {
		rep.Metrics = o.e2e
	}
	printReport(rep)
}

type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func printReport(r report) {
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	os.Exit(2)
}

// logf writes a human-readable report line to standard error.
func logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
}
