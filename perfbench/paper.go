package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"os/exec"
	"strconv"
	"time"

	"gpuvar/internal/cluster"
	"gpuvar/internal/engine"
	"gpuvar/internal/estimate"
	"gpuvar/internal/figures"
	"gpuvar/internal/traffic"
)

// catalogSeconds is the wall time one paper-fidelity catalog is
// budgeted in --seconds: a run regenerates the catalog
// max(1, seconds/catalogSeconds) times, a fixed amount of work per
// setting. One catalog took 10-11 s on the 2-core machine the
// benchmark was defined on.
const catalogSeconds = 15

// paperSetups is how many cold instantiation rounds paper-full's
// set-up makes; each takes well under a second.
const paperSetups = 7

// paperConfig is cmd/figures -full: the paper's iteration counts and
// all of Summit's 27,648 GPUs.
func paperConfig(seed uint64) figures.Config {
	return figures.Config{Seed: seed, SummitFraction: 1, Iterations: 100, MLIterations: 100, Runs: 5}
}

// childReport is what a paper-full child process prints.
type childReport struct {
	Setups     []float64          `json:"setup_s"`
	Catalogs   []float64          `json:"catalog_s"`
	FirstByte  []float64          `json:"first_byte_s"`
	Digests    []string           `json:"digests"`
	Serial     string             `json:"serial_digest"`
	SerialS    float64            `json:"serial_s"`
	Bytes      int                `json:"bytes"`
	Generators int                `json:"generators"`
	RSSMB      float64            `json:"rss_mb"`
	Counters   map[string]float64 `json:"counters"`
	// Traced runs only.
	GenMS     map[string]float64 `json:"gen_ms,omitempty"`
	TracedS   float64            `json:"traced_s,omitempty"`
	Uncovered float64            `json:"uncovered,omitempty"`
	SpanCount int                `json:"spans,omitempty"`
}

// hashWriter hashes what it is given and notes when the first byte came.
type hashWriter struct {
	h     hash.Hash
	n     int
	first time.Time
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(p []byte) (int, error) {
	if w.first.IsZero() && len(p) > 0 {
		w.first = time.Now()
	}
	w.n += len(p)
	return w.h.Write(p)
}

func (w *hashWriter) digest() string { return hex.EncodeToString(w.h.Sum(nil)) }

// runChild runs paper-full's measured work in a fresh process, so the
// catalog starts from cold caches and its peak RSS is its own.
func runChild(kind string, seed uint64, seconds float64, trace bool, out string) int {
	if kind != "paper" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -child %q\n", kind)
		return 2
	}
	rep, err := paperChild(seed, seconds, trace, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func paperChild(seed uint64, seconds float64, trace bool, out string) (*childReport, error) {
	ctx := context.Background()
	cfg := paperConfig(seed)
	rep := &childReport{Generators: len(figures.IDs()), Counters: map[string]float64{}}

	// Set-up: cold instantiation of every catalog cluster, paperSetups
	// times. The last round fills the process-wide cache the catalog
	// reads.
	for k := 0; k < paperSetups; k++ {
		fc := cluster.NewFleetCache()
		if k == paperSetups-1 {
			fc = cluster.DefaultFleetCache
		}
		t0 := time.Now()
		for _, spec := range cluster.All() {
			if _, err := fc.Get(ctx, spec, seed); err != nil {
				return nil, err
			}
		}
		rep.Setups = append(rep.Setups, time.Since(t0).Seconds())
	}

	fleet0, eng0, est0 := cluster.DefaultFleetCache.Stats(), engine.Snapshot(), estimate.Snapshot()
	n := max(1, int(seconds/catalogSeconds))
	for k := 0; k < n; k++ {
		w := newHashWriter()
		t0 := time.Now()
		if err := figures.GenerateAllParallel(ctx, figures.NewSession(cfg), w, nproc); err != nil {
			return nil, err
		}
		rep.Catalogs = append(rep.Catalogs, time.Since(t0).Seconds())
		rep.FirstByte = append(rep.FirstByte, w.first.Sub(t0).Seconds())
		rep.Digests = append(rep.Digests, w.digest())
		rep.Bytes = w.n
	}
	fleet1, eng1, est1 := cluster.DefaultFleetCache.Stats(), engine.Snapshot(), estimate.Snapshot()
	c := rep.Counters
	c["fleet_hits"] = float64(fleet1.Hits - fleet0.Hits)
	c["fleet_misses"] = float64(fleet1.Misses - fleet0.Misses)
	c["fleet_evictions"] = float64(fleet1.Evictions - fleet0.Evictions)
	c["engine_jobs"] = float64(eng1.JobsStarted - eng0.JobsStarted)
	c["engine_shards"] = float64(eng1.ShardsCompleted - eng0.ShardsCompleted)
	c["engine_retries"] = float64(eng1.Retries - eng0.Retries)
	c["calibrations"] = float64(est1.Calibrations - est0.Calibrations)
	c["screened"] = float64(est1.ScreenedOut - est0.ScreenedOut)
	c["full_sim"] = float64(est1.FullSim - est0.FullSim)

	// The oracle: serial GenerateAll on a fresh session.
	w := newHashWriter()
	t0 := time.Now()
	if err := figures.GenerateAll(ctx, figures.NewSession(cfg), w); err != nil {
		return nil, err
	}
	rep.SerialS = time.Since(t0).Seconds()
	rep.Serial = w.digest()

	if trace {
		// figures.Generate per generator in catalog order on one fresh
		// session, each under a span whose parent spans the pass.
		tr := newTracer()
		s := figures.NewSession(cfg)
		root := tr.id()
		start := time.Now()
		tw := newHashWriter()
		var genErr error
		for _, id := range figures.IDs() {
			tr.timed(root, "figures.gen."+id, func() {
				if genErr == nil {
					genErr = figures.Generate(ctx, id, s, tw)
					fmt.Fprintln(tw)
				}
			})
		}
		end := time.Now()
		if genErr != nil {
			return nil, genErr
		}
		tr.add(root, 0, 1, "request", start, end)
		if tw.digest() != rep.Serial {
			return nil, fmt.Errorf("per-generator catalog differs from GenerateAll output")
		}
		self := tr.selfTimes()
		rep.GenMS = map[string]float64{}
		for _, id := range figures.IDs() {
			rep.GenMS[id] = quantile(tr.selfMS("figures.gen."+id, self), 0.5)
		}
		rep.TracedS = end.Sub(start).Seconds()
		rep.Uncovered, _ = tr.uncovered(self)
		rep.SpanCount = tr.count()
		if err := tr.write(tracePath(&env{out: out, seed: seed}, "paper-full-child")); err != nil {
			return nil, err
		}
	}

	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return nil, err
	}
	rep.RSSMB = rss
	return rep, nil
}

func runPaperFull(e *env) (*outcome, error) {
	o := &outcome{e2e: metrics{}, layer: metrics{}}
	trace := "0"
	if e.trace {
		trace = "1"
	}
	cmd := exec.Command(e.self, "-child", "paper", "-seed", strconv.FormatUint(e.seed, 10),
		"-seconds", strconv.FormatFloat(e.seconds, 'f', -1, 64), "-trace", trace, "-out", e.out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("catalog child: %w", err)
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("decoding catalog child output: %w", err)
	}

	// Correctness: every parallel catalog equals serial GenerateAll.
	o.attempted = (len(rep.Digests) + 1) * rep.Generators
	for k, dg := range rep.Digests {
		if dg != rep.Serial {
			o.failed += rep.Generators
			if o.firstErr == "" {
				o.firstErr = fmt.Sprintf("parallel catalog %d digest %s, serial GenerateAll %s", k, dg, rep.Serial)
			}
		}
	}
	logf("paper-full: %d catalogs of %d generators, %d bytes each, digest %s; serial GenerateAll %.2fs",
		len(rep.Catalogs), rep.Generators, rep.Bytes, rep.Serial, rep.SerialS)

	catMS := make([]float64, len(rep.Catalogs))
	for i, s := range rep.Catalogs {
		catMS[i] = s * 1000
	}
	firstMS := make([]float64, len(rep.FirstByte))
	for i, s := range rep.FirstByte {
		firstMS[i] = s * 1000
	}
	m := o.e2e
	m.set("setup_s", quantile(rep.Setups, 0.5), "s")
	m.set("p50_ms", quantile(catMS, 0.5), "ms")
	m.set("p99_ms", quantile(catMS, 0.99), "ms")
	m.set("ttfl_p50_ms", quantile(firstMS, 0.5), "ms")
	m.set("ttfl_p90_ms", quantile(firstMS, 0.9), "ms")
	m.set("capacity_rps", float64(rep.Generators)/quantile(rep.Catalogs, 0.5), "1/s")
	m.set("rss_peak_mb", rep.RSSMB, "MB")
	logf("samples: %d catalogs, %d set-ups", len(rep.Catalogs), len(rep.Setups))

	if !e.trace || o.failed > 0 {
		return o, nil
	}
	l := o.layer
	c := rep.Counters
	dl := delta{
		jobsStarted: c["engine_jobs"], shards: c["engine_shards"], retries: c["engine_retries"],
		fleetHits: c["fleet_hits"], fleetMisses: c["fleet_misses"], fleetEvicted: c["fleet_evictions"],
		calibrations: c["calibrations"], screened: c["screened"], fullSim: c["full_sim"],
	}
	generated := len(rep.Catalogs) * rep.Generators
	logDelta("paper-full catalogs (in-process counters)", dl, generated)
	layerStats(l, dl, generated, nil)
	l.set("service.body_bytes", float64(rep.Bytes)/float64(rep.Generators), "bytes")
	l.set("service.body_bytes.n", float64(rep.Generators), "count")
	fres, fdl, err := fleetPass(e, o)
	if err != nil {
		return nil, err
	}
	fleetMetrics(l, fres, fdl)
	jobMetrics(l, fres)
	_, _, late := latencies(fres)
	l.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	for id, v := range rep.GenMS {
		l.set("figures.gen_ms."+id, v, "ms")
	}
	l.set("figures.gen_ms.n", 1, "count")

	tr := newTracer()
	p := probeSet{estimate: []string{
		`{"cluster":"Longhorn","axis":"powercap","values":[281.5,263.25,244.75,226.5,208.25,190]}`,
		`{"cluster":"Vortex","axis":"ambient","values":[-6.5,-3.25,0.5,3.75,7]}`,
	}}
	for _, id := range []string{"fig2", "tab1", "fig22"} {
		p.serve = append(p.serve, request{kind: traffic.KindFigures, method: "GET", path: "/v1/figures/" + id})
	}
	if err := probe(l, tr, p); err != nil {
		return nil, err
	}
	l.set("trace.uncovered_share", rep.Uncovered, "ratio")
	l.set("trace.uncovered_share.base", 1, "count")
	l.set("trace.overhead_ms", (rep.TracedS-rep.SerialS)*1000, "ms")
	l.set("trace.spans", float64(rep.SpanCount+tr.count()), "count")
	return o, tr.write(tracePath(e, "paper-full"))
}
