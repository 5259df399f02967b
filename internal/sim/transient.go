package sim

import (
	"gpuvar/internal/gpu"
	"gpuvar/internal/rng"
	"gpuvar/internal/telemetry"
	"gpuvar/internal/workload"
)

// devState tracks one device's execution position inside a transient job.
type devState struct {
	dev *Device
	rec *telemetry.Recorder

	sysF  map[string]float64 // per-kernel persistent system factor
	runF  float64
	hostF float64 // persistent host-stall fraction
	iter  *rng.Source

	kernelIdx  int     // index into the iteration's kernel list
	progress   float64 // nominal ms completed of the current kernel
	workMs     float64 // total nominal ms of the current kernel instance
	gapLeftMs  float64 // remaining host launch gap
	hostLeftMs float64 // remaining input-pipeline stall this iteration
	marked     bool    // BeginKernel recorded for the current kernel
	atBarrier  bool    // finished compute kernels, waiting for peers
	iterStart  float64
	thermalHit bool
	pNoise     float64

	result GPURunResult // accumulates iteration records during the run
}

// TransientResult bundles per-GPU results with their full traces.
type TransientResult struct {
	Results []GPURunResult
	Traces  []*telemetry.Trace
}

// RunTransient executes one run of wl on devs (len must equal
// wl.GPUsPerJob) with the full tick-level physics, returning per-GPU
// results and telemetry traces. jobStream seeds job-shared jitter
// (communication time); it must differ between jobs.
func RunTransient(devs []*Device, wl workload.Workload, jobStream *rng.Source, opt Options) TransientResult {
	if len(devs) != wl.GPUsPerJob {
		panic("sim: device count does not match workload GPUsPerJob")
	}
	dt := opt.dt()
	comm := commStream(jobStream, wl, opt.Run)
	// Communication time has a per-job, per-run component (NCCL ring
	// construction, link routing) plus small per-iteration jitter.
	jobCommF := 1.0
	if wl.CommSpread > 0 {
		jobCommF = comm.LogNormalMeanSpread(1, wl.CommSpread)
	}

	// Partition kernels: compute kernels run per-GPU, comm kernels run
	// after the barrier.
	var computeKs, commKs []workload.Kernel
	for _, k := range wl.Kernels {
		if k.Comm && wl.MultiGPU() {
			commKs = append(commKs, k)
		} else {
			computeKs = append(computeKs, k)
		}
	}

	ki := newKernelIndex(wl.Kernels)
	states := make([]*devState, len(devs))
	for i, d := range devs {
		st := &devState{
			dev:    d,
			rec:    telemetry.NewRecorder(d.Chip.ID, opt.sampleInterval()),
			sysF:   sysFactors(d, wl),
			runF:   d.runFactor(wl, opt.Run),
			hostF:  d.HostStallFrac(wl),
			iter:   d.iterStream(wl, opt.Run),
			pNoise: d.powerNoiseW(opt.Run),
		}
		// Warm start: the paper measures after a full warm-up run, by
		// which time the die sits at its sustained-load equilibrium (the
		// air-cooled RC constant is ~20 s; a cold start would bias the
		// first minute of samples).
		if opt.ColdStart {
			d.Node.TempC = d.Node.AmbientC + opt.AmbientOffsetC
		} else {
			d.Node.TempC = d.steadyPlan(wl, ki, opt).tempC
		}
		states[i] = st
	}

	totalIters := wl.WarmupIters + wl.Iterations
	tMs := 0.0
	for iter := 0; iter < totalIters; iter++ {
		recording := iter >= wl.WarmupIters
		// Iteration noise must come from the same draw count whether or
		// not recording, so warmups don't shift the stream.
		for _, st := range states {
			st.kernelIdx = 0
			st.atBarrier = false
			st.iterStart = tMs
			st.hostLeftMs = st.sampleHostStall(computeKs, wl)
			st.startKernel(computeKs, wl, recording, tMs)
		}
		// Phase 1: per-GPU compute kernels until all reach the barrier.
		for !allAtBarrier(states) {
			tMs += dt
			for _, st := range states {
				st.tick(dt, tMs, computeKs, wl, recording, opt)
			}
		}
		// Phase 2: communication kernels execute in lockstep on all
		// GPUs with job-shared duration jitter.
		for _, ck := range commKs {
			durF := jobCommF
			if wl.RunJitter > 0 {
				durF *= comm.LogNormalMeanSpread(1, wl.RunJitter)
			}
			work := ck.NominalMs * durF
			for _, st := range states {
				st.workMs = work
				st.progress = 0
				if recording {
					st.rec.BeginKernel(ck.Name, tMs)
				}
			}
			done := false
			for !done {
				tMs += dt
				done = true
				for _, st := range states {
					if st.progress < st.workMs {
						st.progress += dt * progressRate(st.dev.Chip, ck, st.dev.Ctl.FreqMHz())
						st.tickPhysics(dt, tMs, effActivity(st.dev.Chip, ck), true, opt)
						if st.progress < st.workMs {
							done = false
						} else if recording {
							st.rec.EndKernel(tMs)
						}
					} else {
						st.tickPhysics(dt, tMs, waitActivity, true, opt)
					}
				}
			}
		}
		if recording {
			iterMs := tMs - states[0].iterStart
			for _, st := range states {
				st.recordIteration(iterMs)
			}
		}
	}
	for _, st := range states {
		st.dev.Ctl.Park()
	}

	res := TransientResult{}
	for _, st := range states {
		res.Results = append(res.Results, st.finish(wl))
		res.Traces = append(res.Traces, st.rec.Trace())
	}
	return res
}

// iterationsMs accumulates on devState via recordIteration.
func (st *devState) recordIteration(iterMs float64) {
	st.result.IterationsMs = append(st.result.IterationsMs, iterMs)
}

// startKernel begins the kernel at kernelIdx, sampling its work. The
// telemetry mark is deferred until the host launch gap elapses so the
// measured duration covers device execution only.
func (st *devState) startKernel(ks []workload.Kernel, wl workload.Workload, recording bool, tMs float64) {
	if st.kernelIdx >= len(ks) {
		st.atBarrier = true
		return
	}
	k := ks[st.kernelIdx]
	iterF := 1.0
	if wl.RunJitter > 0 {
		iterF = st.iter.LogNormalMeanSpread(1, wl.RunJitter/2)
	}
	st.workMs = kernelWorkMs(k, st.sysF[k.Name], st.runF, iterF)
	st.progress = 0
	st.gapLeftMs = wl.LaunchGapMs
	st.marked = false
}

// tick advances one device by dt within the compute phase.
func (st *devState) tick(dt, tMs float64, ks []workload.Kernel, wl workload.Workload, recording bool, opt Options) {
	if st.atBarrier {
		st.tickPhysics(dt, tMs, waitActivity, true, opt)
		return
	}
	if st.hostLeftMs > 0 {
		// Input-pipeline / framework stall: the GPU idles at low
		// activity with the clock still boosted.
		st.hostLeftMs -= dt
		st.tickPhysics(dt, tMs, gapActivity, true, opt)
		return
	}
	k := ks[st.kernelIdx]
	if st.gapLeftMs > 0 {
		// Host-side launch gap before the kernel body executes.
		st.gapLeftMs -= dt
		st.tickPhysics(dt, tMs, gapActivity, true, opt)
		return
	}
	if !st.marked && recording {
		st.rec.BeginKernel(k.Name, tMs)
	}
	st.marked = true
	st.progress += dt * progressRate(st.dev.Chip, k, st.dev.Ctl.FreqMHz())
	st.tickPhysics(dt, tMs, effActivity(st.dev.Chip, k), true, opt)
	if st.progress >= st.workMs {
		if recording {
			st.rec.EndKernel(tMs)
		}
		st.kernelIdx++
		st.startKernel(ks, wl, recording, tMs)
	}
}

// tickPhysics advances power, thermal, DVFS, and telemetry by dt.
func (st *devState) tickPhysics(dt, tMs float64, act gpu.Activity, busy bool, opt Options) {
	d := st.dev
	f := d.Ctl.FreqMHz()
	p := d.Chip.TotalPower(f, d.Node.TempC, act)
	d.Node.Step(dt/1000, p, d.Chip.ThermalResistFactor)
	d.Ctl.Tick(dt, p, d.Node.TempC, busy)
	if d.Ctl.ThermallyLimited() {
		st.thermalHit = true
	}
	st.rec.Record(tMs, f, p, d.Node.TempC)
}

// sampleHostStall draws this iteration's host stall time in wall ms:
// the compute kernels' nominal total scaled by the persistent per-GPU
// stall fraction and per-iteration input jitter.
func (st *devState) sampleHostStall(ks []workload.Kernel, wl workload.Workload) float64 {
	if st.hostF <= 0 {
		return 0
	}
	var nominal float64
	for _, k := range ks {
		nominal += k.NominalMs
	}
	jitter := st.iter.LogNormalMeanSpread(1, hostJitterSpread)
	return nominal * st.hostF * jitter
}

// finish computes the per-run aggregates from the trace. Metric medians
// cover the whole sample stream — the vendor profilers sample power,
// frequency, and temperature continuously, not per kernel.
func (st *devState) finish(wl workload.Workload) GPURunResult {
	tr := st.rec.Trace()
	r := st.result
	r.GPUID = st.dev.Chip.ID
	r.MedianFreqMHz = tr.MedianFreqMHz()
	r.MedianPowerW = tr.MedianPowerW() + st.pNoise
	r.MedianTempC = tr.MedianTempC()
	r.MaxPowerW = tr.MaxPowerW()
	r.MaxTempC = tr.MaxTempC()
	r.ThermallyLimited = st.thermalHit
	r.PerfMs = perfFromMeasurements(wl, tr.KernelDurationsByName(), r.IterationsMs)
	return r
}

// perfFromMeasurements derives the workload's performance metric from
// name-keyed durations by viewing them through a kernel index and
// delegating to perfFromPlan — one metric implementation for both the
// steady and transient paths.
func perfFromMeasurements(wl workload.Workload, byName map[string][]float64, itersMs []float64) float64 {
	ki := newKernelIndex(wl.Kernels)
	byIdx := make([][]float64, ki.n())
	for name, ds := range byName {
		if di, ok := ki.lookup(name); ok {
			byIdx[di] = ds
		}
	}
	return perfFromPlan(wl, ki, byIdx, itersMs, nil)
}

// medianFloat returns the median of s, reordering s in place: an O(n)
// quickselect for the upper middle element; for even n, everything left
// of it is no larger, so the lower middle is the maximum of that part.
// The result is bit-identical to sorting s and averaging the middle
// pair.
func medianFloat(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	k := n / 2
	hi := selectKth(s, k)
	if n%2 == 1 {
		return hi
	}
	lo := s[0]
	for _, x := range s[1:k] {
		if x > lo {
			lo = x
		}
	}
	return (lo + hi) / 2
}

// selectKth partially orders s so that s[k] holds its k-th smallest
// value (0-based), everything before it is no larger and everything
// after it no smaller, and returns that value. Hoare partitioning around
// a median-of-three pivot keeps runs of equal values linear.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		p := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

func allAtBarrier(states []*devState) bool {
	for _, st := range states {
		if !st.atBarrier {
			return false
		}
	}
	return true
}
