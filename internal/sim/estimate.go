package sim

import (
	"gpuvar/internal/dvfs"
	"gpuvar/internal/gpu"
	"gpuvar/internal/thermal"
	"gpuvar/internal/workload"
)

// NominalSteady is the closed-form converged operating point of a
// nominal device: RunSteady with every random factor pinned to its
// distribution mean and the iteration loop collapsed. Kernel durations
// are constants, so the medians the run path would compute degenerate
// to the constants themselves — no per-iteration loop, no RNG.
type NominalSteady struct {
	// PerfMs is the workload's performance metric for the nominal
	// device (median kernel, iteration duration, or long-kernel sum,
	// per the workload's Metric).
	PerfMs float64
	// FreqMHz and PowerW are the duration-weighted median clock and
	// power over one iteration's phases, exactly as steadyPoint.medians
	// reports them for a jitter-free device.
	FreqMHz float64
	PowerW  float64
	// TempC is the equilibrium die temperature under the blended
	// activity.
	TempC float64
	// ThermallyLimited reports whether any kernel's clock had to step
	// down to stay under the slowdown temperature.
	ThermallyLimited bool
}

// EstimateNominalSteady solves the steady operating point of a NOMINAL
// device — callers construct the chip with a nil RNG stream (every
// manufacturing factor 1, no defect) and the thermal node at the
// cooling model's mean parameters — under an administrative power cap
// and ambient offset. It shares solveSteady with the run path, so the
// physics (DVFS fixed point, per-kernel cap search, thermal step-down)
// cannot drift from the simulator; only the jitter synthesis is
// dropped. The coarse-P-state dither is never applied: dither is a
// per-run Bernoulli draw, and the nominal device is the no-draw mean.
func EstimateNominalSteady(chip *gpu.Chip, node *thermal.Node, wl workload.Workload, adminCapW, ambientOffsetC float64) NominalSteady {
	d := &Device{Chip: chip, Node: node, Ctl: dvfs.New(chip, dvfs.DefaultConfig(), adminCapW)}
	ki := newKernelIndex(wl.Kernels)
	sp := solveSteady(d, wl, ki, Options{AdminCapW: adminCapW, AmbientOffsetC: ambientOffsetC}, false)

	// Rebuild one iteration from the constant kernel durations, using
	// RunSteady's partition: comm kernels run in lockstep only on
	// multi-GPU jobs (a job of identical nominal devices has zero
	// barrier wait, so lockstep is just the kernel's own duration).
	multi := wl.MultiGPU()
	hostF := 0.0
	if wl.HostStallMean > 0 {
		hostF = wl.HostStallMean // the lognormal jitter factor has mean 1
	}
	var iterMs, nominal float64
	for _, k := range wl.Kernels {
		di := ki.of(k.Name)
		if k.Comm && multi {
			iterMs += sp.kernelMs[di]
			continue
		}
		iterMs += sp.kernelMs[di] + wl.LaunchGapMs
		nominal += k.NominalMs
	}
	hostMs := nominal * hostF
	iterMs += hostMs

	var perf float64
	switch wl.Metric {
	case workload.MetricIterationDuration:
		perf = iterMs
	case workload.MetricSumLongKernels:
		for _, k := range wl.Kernels {
			if k.NominalMs >= wl.LongKernelMinMs {
				perf += sp.kernelMs[ki.of(k.Name)]
			}
		}
	default: // MetricMedianKernel — the paper measures the compute kernel
		var ds []float64
		for _, k := range wl.Kernels {
			if !k.Comm {
				ds = append(ds, sp.kernelMs[ki.of(k.Name)])
			}
		}
		if len(ds) == 0 {
			for _, k := range wl.Kernels {
				ds = append(ds, sp.kernelMs[ki.of(k.Name)])
			}
		}
		perf = medianFloat(ds)
	}

	ones := make([]float64, ki.n())
	for i := range ones {
		ones[i] = 1
	}
	f, p, t := sp.medians(d, wl, ki, ones, hostMs, 0, &medianScratch{})
	return NominalSteady{
		PerfMs:           perf,
		FreqMHz:          f,
		PowerW:           p,
		TempC:            t,
		ThermallyLimited: sp.thermal,
	}
}
