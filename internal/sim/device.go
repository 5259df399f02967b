// Package sim executes workloads on modeled GPUs. It offers two
// execution paths with the same result schema:
//
//   - Transient: a 1 ms tick loop coupling kernel progress, the DVFS
//     controller, the RC thermal model, and the telemetry sampler. This
//     is the ground truth, used for time-series figures (paper Figs. 11
//     and 25) and for validating the fast path.
//   - Steady: an analytic evaluation of the converged operating point
//     per kernel class, used for fleet-scale experiments (Summit has
//     27,648 GPUs; ticking each for hundreds of seconds is wasteful
//     when the equilibrium is computable directly).
//
// Multi-GPU jobs run bulk-synchronously: every iteration ends with a
// barrier, so the job advances at the pace of its slowest GPU — the
// amplification mechanism behind the paper's multi-GPU findings (§V-A,
// §VII "Impact on Users").
package sim

import (
	"fmt"

	"gpuvar/internal/dvfs"
	"gpuvar/internal/gpu"
	"gpuvar/internal/rng"
	"gpuvar/internal/thermal"
	"gpuvar/internal/workload"
)

// Device is one simulated GPU: immutable chip parameters plus its
// thermal environment, PM controller, and private noise stream.
//
// A Device is confined to a single goroutine: its noise stream and its
// steady-point memo are stateful and unsynchronized. The concurrent
// layers above respect this by construction — internal/core builds a
// fresh device set per job inside the job's goroutine, and
// internal/campaign reuses devices only within one (single-goroutine)
// Simulate call — so devices are never shared across goroutines, and
// the whole stack stays race-free without a lock on the simulation hot
// path.
type Device struct {
	Chip *gpu.Chip
	Node *thermal.Node
	Ctl  *dvfs.Controller

	// sys is the device's deterministic noise stream; per-workload
	// system factors are split from it by workload name.
	sys *rng.Source

	// steady memoizes solved operating points (see steadyPlan), allocated
	// lazily on first solve. The key identifies the workload by Name, so
	// the memo assumes (a) one workload definition per name within the
	// device's lifetime — true for every current caller, where a device
	// lives inside a single experiment or campaign — and (b) the chip is
	// not mutated behind the device's back: defect injection through
	// Chip.InjectDefect bumps the chip's defect generation, which is part
	// of the key, but direct field writes are not detected.
	steady map[steadyKey]*steadyPoint
}

// NewDevice assembles a device. adminCapW is the administrative power
// limit (0 = TDP). The sys stream must be unique per device (split from
// the experiment seed by GPU index).
func NewDevice(chip *gpu.Chip, node *thermal.Node, cfg dvfs.Config, adminCapW float64, sys *rng.Source) *Device {
	return &Device{
		Chip: chip,
		Node: node,
		Ctl:  dvfs.New(chip, cfg, adminCapW),
		sys:  sys,
	}
}

// SysFactor returns the device's persistent non-PM slowdown factor for
// one kernel of a workload: cuDNN algorithm selection and code-path
// differences are per kernel class, so each (device, workload, kernel)
// triple gets its own lognormal factor with spread wl.SysSpread. This
// both perturbs the iteration mix (destabilizing sampled power medians
// on phase-balanced workloads like BERT) and partially averages out in
// total iteration time.
func (d *Device) SysFactor(wl workload.Workload, kernelName string) float64 {
	if wl.SysSpread <= 0 {
		return 1
	}
	return d.sys.Split("sys:"+wl.Name+":"+kernelName).LogNormalMeanSpread(1, wl.SysSpread)
}

// sysFactors samples the per-kernel system factors for a workload.
func sysFactors(d *Device, wl workload.Workload) map[string]float64 {
	out := make(map[string]float64, len(wl.Kernels))
	for _, k := range wl.Kernels {
		out[k.Name] = d.SysFactor(wl, k.Name)
	}
	return out
}

// sysFactorsIndexed samples the same per-kernel system factors into a
// dense slice addressed by the workload's kernel index (the steady
// path's allocation-lean equivalent of sysFactors). Kernels sharing a
// name share a slot and draw from the same split stream, so the values
// coincide with the map version's.
func sysFactorsIndexed(d *Device, wl workload.Workload, ki *kernelIndex) []float64 {
	out := make([]float64, ki.n())
	for _, k := range wl.Kernels {
		out[ki.of(k.Name)] = d.SysFactor(wl, k.Name)
	}
	return out
}

// HostStallFrac returns the device's persistent host/input-pipeline
// stall fraction for a workload: extra wall time per iteration as a
// fraction of GPU compute time, during which the GPU idles at low
// activity. Per-GPU spread models node-local input pipelines.
func (d *Device) HostStallFrac(wl workload.Workload) float64 {
	if wl.HostStallMean <= 0 {
		return 0
	}
	f := wl.HostStallMean * d.sys.Split("host:"+wl.Name).LogNormalMeanSpread(1, wl.HostStallSpread)
	// A stalling chip's node is sick across the stack: its host side
	// starves too, which is what turns a 1.3× SGEMM outlier into the
	// 3.5×-slower, 76 W ResNet straggler of paper §V-A.
	if d.Chip.Defect == gpu.DefectStall {
		f *= 8
	}
	return f
}

// powerNoiseW returns this run's power-sensor offset: board telemetry
// quantizes and averages internally, so repeated medians differ by a
// watt or two even at identical operating points.
func (d *Device) powerNoiseW(run int) float64 {
	return d.sys.SplitIndex("pnoise", run).Gaussian(0, 1.8)
}

// kernelWorkMs returns the effective work of one kernel instance in
// nominal milliseconds after system and run factors.
func kernelWorkMs(k workload.Kernel, sysF, runF, iterF float64) float64 {
	return k.NominalMs * sysF * runF * iterF
}

// progressRate returns the kernel's instantaneous progress in nominal
// milliseconds per wall millisecond at the given clock: the harmonic
// blend of the frequency-scaled compute portion (degraded by stall
// defects) and the bandwidth-scaled memory portion.
func progressRate(chip *gpu.Chip, k workload.Kernel, freqMHz float64) float64 {
	fn := freqMHz / chip.SKU.MaxClockMHz
	if fn <= 0 {
		return 0
	}
	ce := chip.ComputeEff
	cPart := k.ComputeFrac / (fn * ce)
	mPart := (1 - k.ComputeFrac) / chip.MemBWFac
	denom := cPart + mPart
	if denom <= 0 {
		return 0
	}
	return 1 / denom
}

// effActivity returns the power activity of a kernel on this chip:
// stall defects reduce achieved compute activity (the chip is resident
// but idle-cycling), which is what makes Longhorn's c002 stragglers
// both slow AND low-power (§V-A).
func effActivity(chip *gpu.Chip, k workload.Kernel) gpu.Activity {
	return gpu.Activity{
		Compute: k.Act.Compute * chip.ComputeEff,
		Memory:  k.Act.Memory,
	}
}

// waitActivity is the power activity of a GPU spinning at a bulk-sync
// barrier (NCCL busy-wait: low FU activity, light memory polling).
var waitActivity = gpu.Activity{Compute: 0.04, Memory: 0.08}

// gapActivity is the activity between kernel launches (host gap).
var gapActivity = gpu.Activity{Compute: 0.02, Memory: 0.04}

// GPURunResult is one GPU's measurements for one run — the per-GPU,
// per-run record the paper's analysis aggregates.
type GPURunResult struct {
	GPUID string

	// PerfMs is the run's performance number per the workload's metric.
	PerfMs float64
	// IterationsMs are the per-iteration durations (barrier to barrier).
	IterationsMs []float64

	MedianFreqMHz float64
	MedianPowerW  float64
	MedianTempC   float64
	MaxPowerW     float64
	MaxTempC      float64

	// ThermallyLimited reports whether the GPU hit thermal throttling.
	ThermallyLimited bool
}

// Validate sanity-checks a result.
func (r GPURunResult) Validate() error {
	if r.PerfMs <= 0 {
		return fmt.Errorf("sim: non-positive perf %v for %s", r.PerfMs, r.GPUID)
	}
	if r.MedianPowerW < 0 || r.MedianTempC < -50 {
		return fmt.Errorf("sim: implausible medians for %s", r.GPUID)
	}
	return nil
}

// Options configures a run.
type Options struct {
	// AdminCapW is recorded for reference; the cap itself lives in each
	// device's controller (set at NewDevice time).
	AdminCapW float64
	// AmbientOffsetC shifts every device's inlet temperature for this
	// run (day-of-week / time-of-day facility drift, §VI-A).
	AmbientOffsetC float64
	// Run identifies the run for jitter sampling; runs with different
	// indices draw different run-level factors.
	Run int
	// DtMs is the transient tick (default 1 ms).
	DtMs float64
	// ColdStart begins the transient run at ambient temperature instead
	// of the warmed-up equilibrium (used for startup-ramp timelines).
	ColdStart bool
	// SampleIntervalMs is the telemetry sampling interval (default 1 ms,
	// the profiler floor).
	SampleIntervalMs float64
}

func (o Options) dt() float64 {
	if o.DtMs <= 0 {
		return 1
	}
	return o.DtMs
}

func (o Options) sampleInterval() float64 {
	if o.SampleIntervalMs <= 0 {
		return 1
	}
	return o.SampleIntervalMs
}

// runFactor returns the run-level jitter factor for a device.
func (d *Device) runFactor(wl workload.Workload, run int) float64 {
	if wl.RunJitter <= 0 {
		return 1
	}
	return d.sys.SplitIndex("run:"+wl.Name, run).LogNormalMeanSpread(1, wl.RunJitter)
}

// iterStream returns the per-run stream for iteration-level noise.
func (d *Device) iterStream(wl workload.Workload, run int) *rng.Source {
	return d.sys.SplitIndex("iter:"+wl.Name, run)
}

// commStream returns the job-shared stream for communication jitter.
// It must be identical across devices of the same job, so it derives
// from the workload and run only; the caller passes the job's stream.
func commStream(jobSeed *rng.Source, wl workload.Workload, run int) *rng.Source {
	return jobSeed.SplitIndex("comm:"+wl.Name, run)
}

// weightedMedian returns the value at the 50% cumulative weight of the
// (value, weight) pairs — how a fixed-interval sampler's median relates
// to time-weighted states. idx is working space of len(vals).
func weightedMedian(vals, weights []float64, idx []int) float64 {
	if len(vals) == 0 {
		return 0
	}
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by value (tiny n).
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && vals[idx[j]] < vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	half := total / 2
	var acc float64
	for _, i := range idx {
		acc += weights[i]
		if acc >= half {
			return vals[i]
		}
	}
	return vals[idx[len(idx)-1]]
}
