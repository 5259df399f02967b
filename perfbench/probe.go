package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"time"

	"gpuvar/internal/cluster"
	"gpuvar/internal/core"
	"gpuvar/internal/dvfs"
	"gpuvar/internal/figures"
	"gpuvar/internal/rng"
	"gpuvar/internal/service"
	"gpuvar/internal/sim"
	"gpuvar/internal/workload"
)

// baseSeed is gpuvard's default fleet instantiation seed.
const baseSeed = 2022

// sweepClusters are the clusters sweep-shaped requests target.
var sweepClusters = []string{"Longhorn", "Frontera", "Corona", "Vortex"}

// probeSet is a workload's input to the in-process layer probe.
type probeSet struct {
	serve    []request // answered by an in-process service.Server: one miss, then hits
	estimate []string  // sweep bodies for core.EstimateSweepCtx and core.AdaptiveSweepCtx
	// figures, when set, is the config figures.gen_ms.<id> runs at;
	// paper-full measures that stage in its child process instead.
	figures *figures.Config
}

// sweepBody is the subset of a sweep request the probe reads.
type sweepBody struct {
	Cluster string    `json:"cluster"`
	Axis    string    `json:"axis"`
	Values  []float64 `json:"values"`
}

// sweepExperiment mirrors the service's experiment for a sweep request
// on the base seed, full fraction and one run.
func sweepExperiment(name string) (core.Experiment, error) {
	spec, ok := cluster.ByName(name)
	if !ok {
		return core.Experiment{}, fmt.Errorf("unknown cluster %q", name)
	}
	wl, err := workload.ByName("sgemm", spec.SKU())
	if err != nil {
		return core.Experiment{}, err
	}
	return core.Experiment{Cluster: spec, Workload: wl, Seed: baseSeed, Fraction: 1, Runs: 1}, nil
}

// probe times the public functions of each layer in this process, one
// span per call, and sets the per-layer metrics from the spans' self
// times.
func probe(m metrics, tr *tracer, p probeSet) error {
	ctx := context.Background()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	const reps = 3

	// cluster: cold instantiation through FleetCache.Get on a fresh cache.
	for _, spec := range cluster.All() {
		for k := 0; k < reps; k++ {
			fc := cluster.NewFleetCache()
			tr.timed(0, "cluster.instantiate."+spec.Name, func() {
				_, err := fc.Get(ctx, spec, baseSeed)
				keep(err)
			})
		}
	}

	// core: one sweep variant per cluster (fleet cache warm after the
	// first rep), and one experiment per application.
	for _, name := range sweepClusters {
		exp, err := sweepExperiment(name)
		if err != nil {
			return err
		}
		for k := 0; k < reps; k++ {
			tr.timed(0, "core.variant."+name, func() {
				_, err := core.RunVariantCtx(ctx, exp, core.AxisPowerCap, 250)
				keep(err)
			})
		}
	}
	lh := cluster.Longhorn()
	sku := lh.SKU()
	apps := []workload.Workload{
		workload.SGEMMForCluster(sku),
		workload.ResNet50(4, 64, sku),
		workload.BERT(4, 64, sku),
		workload.LAMMPS(8, 16, 16, sku),
		workload.PageRank(643994, 6250000, sku),
	}
	var sgemm *core.Result
	for _, wl := range apps {
		exp := core.Experiment{Cluster: lh, Workload: wl, Seed: baseSeed, Runs: 1}
		for k := 0; k < reps; k++ {
			tr.timed(0, "core.run."+strings.ToLower(wl.Name), func() {
				r, err := core.RunCtx(ctx, exp)
				keep(err)
				if sgemm == nil {
					sgemm = r
				}
			})
		}
	}

	// core: aggregation of a finished result.
	if sgemm != nil {
		for k := 0; k < 20; k++ {
			tr.timed(0, "core.summarize", func() { sgemm.Summarize() })
		}
	}

	// sim: the steady-state solve over devices built from one fleet.
	fleet, err := cluster.DefaultFleetCache.Get(ctx, lh, baseSeed)
	if err != nil {
		return err
	}
	wl := workload.SGEMMForCluster(sku)
	members := fleet.Observed()
	var steadyUS []float64
	for k := 0; k < reps; k++ {
		devs := make([]*sim.Device, len(members))
		root := rng.New(baseSeed)
		for i, mb := range members {
			node := *mb.Therm
			devs[i] = sim.NewDevice(mb.Chip, &node, dvfs.DefaultConfig(), 0, root.SplitIndex("sys", i))
		}
		d := tr.timed(0, "sim.steady", func() {
			for i, dev := range devs {
				sim.RunSteady([]*sim.Device{dev}, wl, root.SplitIndex("jobrun", i), sim.Options{})
			}
		})
		steadyUS = append(steadyUS, us(d)/float64(len(devs)))
	}

	// estimate: analytical sweeps, then adaptive sweeps on the same axes.
	for _, body := range p.estimate {
		var sb sweepBody
		if err := json.Unmarshal([]byte(body), &sb); err != nil {
			return fmt.Errorf("estimate probe input: %w", err)
		}
		exp, err := sweepExperiment(sb.Cluster)
		if err != nil {
			return err
		}
		axis, err := core.ParseVariantAxis(sb.Axis)
		if err != nil {
			return err
		}
		tr.timed(0, "estimate.sweep", func() {
			_, err := core.EstimateSweepCtx(ctx, exp, axis, sb.Values)
			keep(err)
		})
		tr.timed(0, "estimate.sweep", func() {
			_, err := core.AdaptiveSweepCtx(ctx, exp, axis, sb.Values, 0.25)
			keep(err)
		})
	}

	// figures: every generator in catalog order on one session.
	if p.figures != nil {
		s := figures.NewSession(*p.figures)
		for _, id := range figures.IDs() {
			tr.timed(0, "figures.gen."+id, func() { keep(figures.Generate(ctx, id, s, io.Discard)) })
		}
	}

	// service: in-process ServeHTTP, one miss and then hits per request.
	srv, err := service.New(service.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, rq := range p.serve {
		for k := 0; k < 21; k++ {
			req := httptest.NewRequest(rq.method, rq.path, strings.NewReader(rq.body))
			req.Header.Set("X-API-Key", rq.client)
			rec := httptest.NewRecorder()
			id := tr.id()
			t0 := time.Now()
			srv.ServeHTTP(rec, req)
			t1 := time.Now()
			switch cache := rec.Header().Get("X-Cache"); {
			case rec.Code != 200:
				keep(fmt.Errorf("in-process %s %s: %d", rq.method, rq.path, rec.Code))
			case cache == "hit":
				tr.add(id, 0, 0, "service.serve_hit", t0, t1)
			case k == 0:
				tr.add(id, 0, 0, "service.serve_miss", t0, t1)
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}

	self := tr.selfTimes()
	median := func(name string) float64 { return quantile(tr.selfMS(name, self), 0.5) }
	for _, spec := range cluster.All() {
		m.set("cluster.instantiate_ms."+spec.Name, median("cluster.instantiate."+spec.Name), "ms")
	}
	m.set("cluster.instantiate_ms.n", reps, "count")
	for _, name := range sweepClusters {
		m.set("core.variant_ms."+name, median("core.variant."+name), "ms")
	}
	m.set("core.variant_ms.n", reps, "count")
	for _, wl := range apps {
		n := strings.ToLower(wl.Name)
		m.set("core.run_ms."+n, median("core.run."+n), "ms")
	}
	m.set("core.run_ms.n", reps, "count")
	sum := tr.selfMS("core.summarize", self)
	for i := range sum {
		sum[i] *= 1000
	}
	m.timing("core.summarize_us", sum, "us")
	m.set("sim.steady_us_per_gpu", quantile(steadyUS, 0.5), "us")
	m.set("sim.steady_us_per_gpu.n", float64(len(steadyUS)*len(members)), "count")
	m.timing("estimate.sweep_ms", tr.selfMS("estimate.sweep", self), "ms")
	if p.figures != nil {
		for _, id := range figures.IDs() {
			m.set("figures.gen_ms."+id, median("figures.gen."+id), "ms")
		}
		m.set("figures.gen_ms.n", 1, "count")
	}
	hits := tr.selfMS("service.serve_hit", self)
	for i := range hits {
		hits[i] *= 1000
	}
	m.timing("service.hit_serve_us", hits, "us")
	m.timing("service.miss_serve_ms", tr.selfMS("service.serve_miss", self), "ms")
	return nil
}
