package sim

import (
	"math"
	"testing"

	"gpuvar/internal/dvfs"
	"gpuvar/internal/gpu"
	"gpuvar/internal/rng"
	"gpuvar/internal/thermal"
	"gpuvar/internal/workload"
)

// newV100Device builds one healthy or seeded V100 device.
func newV100Device(t *testing.T, id string, seed uint64, cooling thermal.Params, vm gpu.VariationModel) *Device {
	t.Helper()
	parent := rng.New(seed)
	chip := gpu.NewChip(gpu.V100SXM2(), id, vm, parent.Split("chip"))
	node := thermal.NewNode(cooling, 0.5, parent.Split("node"))
	return NewDevice(chip, node, dvfs.DefaultConfig(), 0, parent.Split("sys"))
}

// shortSGEMM is the paper's SGEMM with fewer repetitions for test speed.
func shortSGEMM(iters int) workload.Workload {
	wl := workload.SGEMM(25536, gpu.V100SXM2())
	wl.Iterations = iters
	return wl
}

func TestTransientSGEMMKernelBand(t *testing.T) {
	// Paper Figs. 2–3: V100 SGEMM kernels measure 2300–2700 ms.
	dev := newV100Device(t, "g0", 1, thermal.AirParams(), gpu.VariationModel{})
	res := RunTransient([]*Device{dev}, shortSGEMM(8), rng.New(2), Options{})
	r := res.Results[0]
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.PerfMs < 2300 || r.PerfMs > 2800 {
		t.Fatalf("SGEMM kernel duration %v ms outside paper band", r.PerfMs)
	}
	if r.MedianFreqMHz < 1280 || r.MedianFreqMHz > 1470 {
		t.Fatalf("median frequency %v outside paper band", r.MedianFreqMHz)
	}
	if r.MedianPowerW < 280 || r.MedianPowerW > 302 {
		t.Fatalf("median power %v should ride the 300 W cap", r.MedianPowerW)
	}
}

func TestTransientTraceShape(t *testing.T) {
	// Fig. 11 shape: on kernel launch the clock ramps and power rises to
	// the cap, then DVFS pulls frequency down. Verify the trace contains
	// a power sample above 299 followed by a frequency below the boost.
	dev := newV100Device(t, "g0", 3, thermal.WaterParams(), gpu.VariationModel{})
	res := RunTransient([]*Device{dev}, shortSGEMM(3), rng.New(4), Options{})
	tr := res.Traces[0]
	if len(tr.Samples) < 1000 {
		t.Fatalf("trace too short: %d samples", len(tr.Samples))
	}
	crossed := false
	var minFreqAfterCross float64 = 1e9
	for _, s := range tr.Samples {
		if s.PowerW >= 299 {
			crossed = true
		}
		if crossed && s.FreqMHz < minFreqAfterCross {
			minFreqAfterCross = s.FreqMHz
		}
	}
	if !crossed {
		t.Fatal("power never approached the cap")
	}
	if minFreqAfterCross >= 1530 {
		t.Fatal("no frequency throttle after the cap was hit")
	}
}

func TestSteadyMatchesTransientSGEMM(t *testing.T) {
	// The analytic path must agree with the tick-level path on every
	// reported metric for a spread of chips.
	for i := 0; i < 6; i++ {
		seed := uint64(100 + i)
		devT := newV100Device(t, "g", seed, thermal.AirParams(), gpu.DefaultVariation())
		devS := newV100Device(t, "g", seed, thermal.AirParams(), gpu.DefaultVariation())
		wl := shortSGEMM(6)
		rt := RunTransient([]*Device{devT}, wl, rng.New(9), Options{}).Results[0]
		rs := RunSteady([]*Device{devS}, wl, rng.New(9), Options{})[0]

		if rel := math.Abs(rt.PerfMs-rs.PerfMs) / rt.PerfMs; rel > 0.03 {
			t.Errorf("chip %d: perf transient %v vs steady %v (%.1f%%)", i, rt.PerfMs, rs.PerfMs, rel*100)
		}
		if d := math.Abs(rt.MedianFreqMHz - rs.MedianFreqMHz); d > 40 {
			t.Errorf("chip %d: freq transient %v vs steady %v", i, rt.MedianFreqMHz, rs.MedianFreqMHz)
		}
		if d := math.Abs(rt.MedianPowerW - rs.MedianPowerW); d > 10 {
			t.Errorf("chip %d: power transient %v vs steady %v", i, rt.MedianPowerW, rs.MedianPowerW)
		}
		if d := math.Abs(rt.MedianTempC - rs.MedianTempC); d > 4 {
			t.Errorf("chip %d: temp transient %v vs steady %v", i, rt.MedianTempC, rs.MedianTempC)
		}
	}
}

func TestSteadyMatchesTransientMemoryBound(t *testing.T) {
	devT := newV100Device(t, "g", 55, thermal.AirParams(), gpu.DefaultVariation())
	devS := newV100Device(t, "g", 55, thermal.AirParams(), gpu.DefaultVariation())
	wl := workload.LAMMPS(8, 16, 16, gpu.V100SXM2())
	wl.Iterations = 10
	rt := RunTransient([]*Device{devT}, wl, rng.New(9), Options{}).Results[0]
	rs := RunSteady([]*Device{devS}, wl, rng.New(9), Options{})[0]
	if rel := math.Abs(rt.PerfMs-rs.PerfMs) / rt.PerfMs; rel > 0.04 {
		t.Errorf("perf transient %v vs steady %v", rt.PerfMs, rs.PerfMs)
	}
	// Memory-bound: both paths must report max clock and low power.
	if rt.MedianFreqMHz != 1530 || rs.MedianFreqMHz != 1530 {
		t.Errorf("LAMMPS should pin at 1530: transient %v steady %v", rt.MedianFreqMHz, rs.MedianFreqMHz)
	}
	if rt.MedianPowerW > 200 || rs.MedianPowerW > 200 {
		t.Errorf("LAMMPS power too high: transient %v steady %v", rt.MedianPowerW, rs.MedianPowerW)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() GPURunResult {
		dev := newV100Device(t, "g0", 42, thermal.AirParams(), gpu.DefaultVariation())
		return RunSteady([]*Device{dev}, shortSGEMM(10), rng.New(7), Options{Run: 3})[0]
	}
	a, b := run(), run()
	if a.PerfMs != b.PerfMs || a.MedianPowerW != b.MedianPowerW {
		t.Fatal("same seeds should reproduce identical results")
	}
}

func TestRunIndexChangesJitter(t *testing.T) {
	dev := newV100Device(t, "g0", 42, thermal.AirParams(), gpu.DefaultVariation())
	a := RunSteady([]*Device{dev}, shortSGEMM(10), rng.New(7), Options{Run: 1})[0]
	b := RunSteady([]*Device{dev}, shortSGEMM(10), rng.New(7), Options{Run: 2})[0]
	if a.PerfMs == b.PerfMs {
		t.Fatal("different run indices should draw different jitter")
	}
	// But only slightly: SGEMM run-to-run variation is sub-percent
	// (paper Fig. 8: per-GPU medians 0.44%/0.12%).
	if rel := math.Abs(a.PerfMs-b.PerfMs) / a.PerfMs; rel > 0.02 {
		t.Fatalf("run-to-run variation %.2f%% too large for SGEMM", rel*100)
	}
}

func TestMultiGPUBulkSyncStraggler(t *testing.T) {
	// A 4-GPU ResNet job with one stall-defect GPU must run every GPU's
	// iterations at the straggler's pace (paper §V-A: "multi-GPU jobs
	// with a bulk synchronous pattern end up running as fast as the
	// slowest GPU").
	wl := workload.ResNet50(4, 64, gpu.V100SXM2())
	wl.Iterations = 12
	wl.WarmupIters = 1

	mk := func(defect bool) []*Device {
		devs := make([]*Device, 4)
		for i := range devs {
			devs[i] = newV100Device(t, "g", uint64(200+i), thermal.AirParams(), gpu.DefaultVariation())
		}
		if defect {
			devs[2].Chip.InjectDefect(gpu.DefectStall, rng.New(5))
			// Pin a severe stall for a deterministic assertion (the
			// sampled severity range is 10–65%).
			devs[2].Chip.ComputeEff = 0.45
		}
		return devs
	}
	healthy := RunSteady(mk(false), wl, rng.New(11), Options{})
	defective := RunSteady(mk(true), wl, rng.New(11), Options{})

	// All four GPUs in a job report the same iteration duration.
	for i := 1; i < 4; i++ {
		if math.Abs(defective[i].PerfMs-defective[0].PerfMs) > 1e-9 {
			t.Fatalf("bulk-sync GPUs disagree on iteration time: %v vs %v",
				defective[i].PerfMs, defective[0].PerfMs)
		}
	}
	// The defective job is much slower than the healthy one.
	if defective[0].PerfMs < 1.4*healthy[0].PerfMs {
		t.Fatalf("straggler did not slow the job: %v vs %v", defective[0].PerfMs, healthy[0].PerfMs)
	}
	// The straggler itself draws less power at full clocks — the c002
	// signature (§V-A: slow runs consuming as little as 76 W).
	if defective[2].MedianPowerW >= healthy[2].MedianPowerW {
		t.Fatalf("stall chip power %v should be below healthy %v",
			defective[2].MedianPowerW, healthy[2].MedianPowerW)
	}
}

func TestResNetFrequencyPinned(t *testing.T) {
	// Paper Fig. 14a: ResNet runs at the max 1530 MHz (no throttling).
	devs := make([]*Device, 4)
	for i := range devs {
		devs[i] = newV100Device(t, "g", uint64(300+i), thermal.AirParams(), gpu.DefaultVariation())
	}
	wl := workload.ResNet50(4, 64, gpu.V100SXM2())
	wl.Iterations = 10
	wl.WarmupIters = 1
	for _, r := range RunSteady(devs, wl, rng.New(13), Options{}) {
		if r.MedianFreqMHz < 1500 {
			t.Fatalf("ResNet median frequency %v; should pin near max", r.MedianFreqMHz)
		}
	}
}

func TestPowerBrakeSignatureEndToEnd(t *testing.T) {
	// Summit row-H: braked chip at ~2510 ms, 250–285 W, pinned clock,
	// no temperature anomaly under water cooling (paper Appendix B).
	braked := newV100Device(t, "brk", 77, thermal.WaterParams(), gpu.VariationModel{})
	braked.Chip.InjectDefect(gpu.DefectPowerBrake, rng.New(21))
	healthy := newV100Device(t, "ok", 77, thermal.WaterParams(), gpu.VariationModel{})

	wl := shortSGEMM(8)
	rb := RunSteady([]*Device{braked}, wl, rng.New(3), Options{})[0]
	rh := RunSteady([]*Device{healthy}, wl, rng.New(3), Options{})[0]

	if rb.PerfMs <= rh.PerfMs {
		t.Fatalf("braked chip should be slower: %v vs %v", rb.PerfMs, rh.PerfMs)
	}
	if rb.MedianPowerW >= 290 {
		t.Fatalf("braked chip power %v should be a sub-290 W outlier", rb.MedianPowerW)
	}
	if rb.MedianTempC >= rh.MedianTempC+3 {
		t.Fatalf("braked chip shows a temperature anomaly: %v vs %v", rb.MedianTempC, rh.MedianTempC)
	}
}

func TestAdminPowerCapSlowsSGEMM(t *testing.T) {
	// Paper Fig. 22: kernel durations increase as the power limit drops.
	parent := rng.New(99)
	mk := func(capW float64) *Device {
		chip := gpu.NewChip(gpu.V100SXM2(), "g", gpu.VariationModel{}, parent.Split("chip"))
		node := thermal.NewNode(thermal.AirParams(), 0.5, nil)
		return NewDevice(chip, node, dvfs.DefaultConfig(), capW, parent.Split("sys"))
	}
	wl := shortSGEMM(6)
	p300 := RunSteady([]*Device{mk(0)}, wl, rng.New(1), Options{})[0].PerfMs
	p200 := RunSteady([]*Device{mk(200)}, wl, rng.New(1), Options{})[0].PerfMs
	p150 := RunSteady([]*Device{mk(150)}, wl, rng.New(1), Options{})[0].PerfMs
	if !(p150 > p200 && p200 > p300) {
		t.Fatalf("durations should grow as cap drops: %v %v %v", p300, p200, p150)
	}
}

func TestAmbientOffsetWarmerIsSlower(t *testing.T) {
	// Warmer facility air → more leakage → less DVFS headroom → slower
	// compute-bound kernels.
	mk := func() *Device {
		return newV100Device(t, "g", 123, thermal.AirParams(), gpu.VariationModel{})
	}
	wl := shortSGEMM(6)
	cool := RunSteady([]*Device{mk()}, wl, rng.New(1), Options{AmbientOffsetC: -5})[0]
	warm := RunSteady([]*Device{mk()}, wl, rng.New(1), Options{AmbientOffsetC: +8})[0]
	if warm.PerfMs <= cool.PerfMs {
		t.Fatalf("warmer ambient should be slower: %v vs %v", warm.PerfMs, cool.PerfMs)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	if (GPURunResult{GPUID: "g", PerfMs: 0}).Validate() == nil {
		t.Fatal("zero perf should fail validation")
	}
	if (GPURunResult{GPUID: "g", PerfMs: 5, MedianPowerW: -1}).Validate() == nil {
		t.Fatal("negative power should fail validation")
	}
}

func TestWeightedMedian(t *testing.T) {
	if m := weightedMedian([]float64{1, 10}, []float64{9, 1}, make([]int, 2)); m != 1 {
		t.Fatalf("weightedMedian = %v, want 1", m)
	}
	if m := weightedMedian([]float64{1, 10}, []float64{1, 9}, make([]int, 2)); m != 10 {
		t.Fatalf("weightedMedian = %v, want 10", m)
	}
	if m := weightedMedian(nil, nil, nil); m != 0 {
		t.Fatalf("empty weightedMedian = %v", m)
	}
}

func TestGPUCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched device count did not panic")
		}
	}()
	dev := newV100Device(t, "g", 1, thermal.AirParams(), gpu.VariationModel{})
	RunSteady([]*Device{dev}, workload.ResNet50(4, 64, gpu.V100SXM2()), rng.New(1), Options{})
}

func BenchmarkRunSteadySGEMM(b *testing.B) {
	parent := rng.New(1)
	chip := gpu.NewChip(gpu.V100SXM2(), "g", gpu.DefaultVariation(), parent.Split("chip"))
	node := thermal.NewNode(thermal.AirParams(), 0.5, parent.Split("node"))
	dev := NewDevice(chip, node, dvfs.DefaultConfig(), 0, parent.Split("sys"))
	wl := workload.SGEMM(25536, gpu.V100SXM2())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunSteady([]*Device{dev}, wl, rng.New(2), Options{Run: i})
	}
}

func BenchmarkRunTransientSGEMM(b *testing.B) {
	wl := workload.SGEMM(25536, gpu.V100SXM2())
	wl.Iterations = 2
	wl.WarmupIters = 0
	for i := 0; i < b.N; i++ {
		parent := rng.New(1)
		chip := gpu.NewChip(gpu.V100SXM2(), "g", gpu.DefaultVariation(), parent.Split("chip"))
		node := thermal.NewNode(thermal.AirParams(), 0.5, parent.Split("node"))
		dev := NewDevice(chip, node, dvfs.DefaultConfig(), 0, parent.Split("sys"))
		RunTransient([]*Device{dev}, wl, rng.New(2), Options{})
	}
}
