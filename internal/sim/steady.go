package sim

import (
	"gpuvar/internal/gpu"
	"gpuvar/internal/rng"
	"gpuvar/internal/workload"
)

// hostJitterSpread is the per-iteration spread of the host/input-
// pipeline stall; hostJitterMu and hostJitterSigma are its lognormal
// parameters, taken once for every steady run.
const hostJitterSpread = 0.20

var hostJitterMu, hostJitterSigma = rng.LogNormalParams(1, hostJitterSpread)

// kernelIndex interns a workload's kernel names to dense indices, so the
// steady-state hot loop addresses per-kernel state by slice index instead
// of by name. Kernels sharing a name share one slot. Workloads carry a
// handful of kernels, so a scan of the names beats building a map on
// every run.
type kernelIndex struct {
	names []string
}

func newKernelIndex(ks []workload.Kernel) *kernelIndex {
	ki := &kernelIndex{names: make([]string, 0, len(ks))}
	for _, k := range ks {
		if _, ok := ki.lookup(k.Name); !ok {
			ki.names = append(ki.names, k.Name)
		}
	}
	return ki
}

func (ki *kernelIndex) n() int { return len(ki.names) }

// lookup returns name's dense index, if the workload has the kernel.
func (ki *kernelIndex) lookup(name string) (int, bool) {
	for i, n := range ki.names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// of returns the dense index of one of the workload's kernel names.
func (ki *kernelIndex) of(name string) int {
	i, _ := ki.lookup(name)
	return i
}

// planKernel pairs a kernel with its dense index so the iteration loop
// never looks a name up.
type planKernel struct {
	k  workload.Kernel
	di int
}

// RunSteady executes one run of wl on devs analytically: it solves each
// device's converged DVFS/thermal operating point per kernel class and
// synthesizes the same per-run measurements the transient path produces.
// It is ~10⁴× faster and validated against RunTransient in tests.
//
// jobStream seeds job-shared jitter exactly as in RunTransient.
func RunSteady(devs []*Device, wl workload.Workload, jobStream *rng.Source, opt Options) []GPURunResult {
	if len(devs) != wl.GPUsPerJob {
		panic("sim: device count does not match workload GPUsPerJob")
	}
	comm := commStream(jobStream, wl, opt.Run)
	jobCommF := 1.0
	if wl.CommSpread > 0 {
		jobCommF = comm.LogNormalMeanSpread(1, wl.CommSpread)
	}

	ki := newKernelIndex(wl.Kernels)

	// Partition kernels once, carrying dense indices into the loop.
	var computeKs, commKs []planKernel
	recordsPerIter := make([]int, ki.n())
	for _, k := range wl.Kernels {
		pk := planKernel{k: k, di: ki.of(k.Name)}
		if k.Comm && wl.MultiGPU() {
			commKs = append(commKs, pk)
		} else {
			computeKs = append(computeKs, pk)
		}
		recordsPerIter[pk.di]++
	}

	// Every per-run float buffer lives in one flat arena, carved into
	// capacity-capped sub-slices: per device, one slot per kernel (each
	// slot records once per sharing kernel per recorded iteration) and
	// the iteration durations, which GPURunResult.IterationsMs aliases;
	// then the metric and phase-median scratch every device reuses.
	nPhases := len(wl.Kernels) + 2 // kernels plus host stall and barrier wait
	scratchLen := max(len(wl.Kernels), 1) * wl.Iterations
	arena := make([]float64, len(devs)*(len(wl.Kernels)+1)*wl.Iterations+scratchLen+3*nPhases)
	off := 0
	carve := func(n int) []float64 {
		s := arena[off : off : off+n]
		off += n
		return s
	}

	type devPlan struct {
		st    *steadyPoint
		sysF  []float64 // dense kernel index → persistent system factor
		runF  float64
		hostF float64
		iter  *rng.Source

		kernelDur [][]float64 // dense kernel index → recorded durations
		iters     []float64
		computeMs float64 // this iteration's compute phase
	}
	plans := make([]devPlan, len(devs))
	slots := make([][]float64, len(devs)*ki.n())
	for i, d := range devs {
		p := &plans[i]
		p.st = d.steadyPlan(wl, ki, opt)
		p.sysF = sysFactorsIndexed(d, wl, ki)
		p.runF = d.runFactor(wl, opt.Run)
		p.hostF = d.HostStallFrac(wl)
		p.iter = d.iterStream(wl, opt.Run)
		p.kernelDur = slots[i*ki.n() : (i+1)*ki.n() : (i+1)*ki.n()]
		for di, nrec := range recordsPerIter {
			p.kernelDur[di] = carve(nrec * wl.Iterations)
		}
		p.iters = carve(wl.Iterations)
	}
	scratch := carve(scratchLen)
	phases := medianScratch{
		vals:    carve(nPhases),
		pvals:   carve(nPhases),
		weights: carve(nPhases),
		idx:     make([]int, nPhases),
	}

	// The jitter parameterizations are fixed for the run, so their logs
	// and roots are taken once; each draw below is exactly the
	// LogNormalMeanSpread(1, spread) it stands for, in the same order
	// (a spread that is not positive draws nothing and yields 1).
	iterSpread := wl.RunJitter / 2
	iterMu, iterSigma := rng.LogNormalParams(1, iterSpread)
	commMu, commSigma := rng.LogNormalParams(1, wl.RunJitter)

	// Warmup iterations consume the same jitter draws as the transient
	// path would, keeping streams aligned conceptually (values need not
	// match the transient's, but warmups must not be free).
	totalIters := wl.WarmupIters + wl.Iterations
	for it := 0; it < totalIters; it++ {
		recording := it >= wl.WarmupIters
		// Per-device compute time this iteration.
		for i := range plans {
			p := &plans[i]
			var t, nominal float64
			for _, pk := range computeKs {
				iterF := 1.0
				if iterSpread > 0 {
					iterF = p.iter.LogNormal(iterMu, iterSigma)
				}
				d := p.st.kernelMs[pk.di] * p.sysF[pk.di] * p.runF * iterF
				t += d + wl.LaunchGapMs
				nominal += pk.k.NominalMs
				if recording {
					p.kernelDur[pk.di] = append(p.kernelDur[pk.di], d)
				}
			}
			// Host/input-pipeline stall, matching the transient path.
			if p.hostF > 0 {
				t += nominal * p.hostF * p.iter.LogNormal(hostJitterMu, hostJitterSigma)
			}
			p.computeMs = t
		}
		// Barrier: iteration compute phase is the max across the job.
		maxCompute := 0.0
		for i := range plans {
			if t := plans[i].computeMs; t > maxCompute {
				maxCompute = t
			}
		}
		// Comm kernels in lockstep.
		var commMs float64
		for _, pk := range commKs {
			durF := jobCommF
			if wl.RunJitter > 0 {
				durF *= comm.LogNormal(commMu, commSigma)
			}
			// Comm kernels progress at each device's own rate; lockstep
			// completion means the slowest device sets the pace.
			worst := 0.0
			for i := range devs {
				d := pk.k.NominalMs * durF / progressRateAt(devs[i].Chip, pk.k, plans[i].st.freqMHz[pk.di])
				if d > worst {
					worst = d
				}
			}
			commMs += worst
			if recording {
				for i := range plans {
					plans[i].kernelDur[pk.di] = append(plans[i].kernelDur[pk.di], worst)
				}
			}
		}
		if recording {
			iterMs := maxCompute + commMs
			for i := range plans {
				plans[i].iters = append(plans[i].iters, iterMs)
			}
		}
	}

	// Mean per-iteration phase budget per device, for the sampled-median
	// model: kernel time, host-stall time, and barrier wait (iteration
	// minus own busy time).
	results := make([]GPURunResult, len(devs))
	for i, d := range devs {
		p := &plans[i]
		r := GPURunResult{
			GPUID:            d.Chip.ID,
			IterationsMs:     p.iters,
			ThermallyLimited: p.st.thermal,
		}
		r.PerfMs = perfFromPlan(wl, ki, p.kernelDur, p.iters, scratch)

		var kernelMs, nominal float64
		for _, pk := range computeKs {
			kernelMs += p.st.kernelMs[pk.di] * p.sysF[pk.di] * p.runF
			nominal += pk.k.NominalMs
		}
		for _, pk := range commKs {
			kernelMs += p.st.kernelMs[pk.di]
		}
		hostMs := nominal * p.hostF
		iterMs := meanOf(p.iters)
		waitMs := iterMs - kernelMs - hostMs - wl.LaunchGapMs*float64(len(computeKs))
		if waitMs < 0 {
			waitMs = 0
		}
		r.MedianFreqMHz, r.MedianPowerW, r.MedianTempC = p.st.medians(d, wl, ki, p.sysF, hostMs, waitMs, &phases)
		r.MedianPowerW += d.powerNoiseW(opt.Run)
		r.MaxPowerW = p.st.maxPower
		r.MaxTempC = p.st.tempC
		results[i] = r
	}
	return results
}

// perfFromPlan derives the workload's performance metric from the dense
// accumulators. It is the single metric implementation: the transient
// path reaches it through perfFromMeasurements. Medians are taken in
// scratch (grown if short), never in the accumulators.
func perfFromPlan(wl workload.Workload, ki *kernelIndex, byIdx [][]float64, itersMs, scratch []float64) float64 {
	switch wl.Metric {
	case workload.MetricIterationDuration:
		return medianFloat(append(scratch[:0], itersMs...))
	case workload.MetricSumLongKernels:
		// Per the paper (§V-C): sum of long-kernel durations within one
		// iteration; aggregate across iterations by median. Approximate
		// by summing per-kernel medians of long kernels.
		var sum float64
		for _, k := range wl.Kernels {
			if k.NominalMs >= wl.LongKernelMinMs {
				sum += medianFloat(append(scratch[:0], byIdx[ki.of(k.Name)]...))
			}
		}
		return sum
	default: // MetricMedianKernel
		// Exclude comm kernels: the paper measures the compute kernel.
		// A workload with no compute durations falls back to every
		// kernel's.
		ds := scratch[:0]
		for _, k := range wl.Kernels {
			if !k.Comm {
				ds = append(ds, byIdx[ki.of(k.Name)]...)
			}
		}
		if len(ds) == 0 {
			for _, slot := range byIdx {
				ds = append(ds, slot...)
			}
		}
		return medianFloat(ds)
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// steadyPoint is a device's converged operating state per kernel class.
// The per-kernel slices are indexed by the workload's kernelIndex. A
// steadyPoint is immutable once solved, so devices memoize and share it
// across runs (see Device.steadyPlan).
type steadyPoint struct {
	tempC    float64
	maxPower float64
	thermal  bool
	// Per dense kernel index: equilibrium clock, power, and duration.
	freqMHz  []float64
	powerW   []float64
	kernelMs []float64
}

// steadyKey identifies a converged operating point. The workload is
// identified by Name — callers must not reuse one Device across two
// different workload definitions sharing a name (see Device.steady).
// The defect generation invalidates memoized points when a defect is
// injected mid-stream (campaign simulations).
type steadyKey struct {
	wlName    string
	ambientC  float64
	dither    bool
	defectGen uint32
}

// steadyPlan returns the device's converged operating point for this
// workload and run, memoized per device. The coarse-P-state dither draw
// happens before the lookup, so the RNG stream consumption is identical
// whether or not the memo hits — and the dither outcome is part of the
// key, so runs that park one state lower get their own solution.
func (d *Device) steadyPlan(wl workload.Workload, ki *kernelIndex, opt Options) *steadyPoint {
	dither := false
	if len(d.Chip.SKU.ClockStatesMHz) > 0 {
		dither = d.sys.SplitIndex("dpm", opt.Run).Bernoulli(0.35)
	}
	key := steadyKey{
		wlName:    wl.Name,
		ambientC:  opt.AmbientOffsetC,
		dither:    dither,
		defectGen: d.Chip.DefectGen(),
	}
	if sp, ok := d.steady[key]; ok {
		return sp
	}
	sp := solveSteady(d, wl, ki, opt, dither)
	if d.steady == nil {
		d.steady = make(map[steadyKey]*steadyPoint, 4)
	}
	d.steady[key] = sp
	return sp
}

// solveSteady computes the converged operating point of one device.
// dpmDither is drawn by the caller (see steadyPlan) so the memo key and
// the solution stay consistent.
func solveSteady(d *Device, wl workload.Workload, ki *kernelIndex, opt Options, dpmDither bool) *steadyPoint {
	chip := d.Chip
	ambientShift := opt.AmbientOffsetC
	steadyTemp := func(powerW float64) float64 {
		return d.Node.SteadyTempC(powerW, chip.ThermalResistFactor) + ambientShift
	}

	// Thermal equilibrium under the blended (time-weighted) activity.
	blended := wl.BlendedActivity()
	blendedEff := gpu.Activity{Compute: blended.Compute * chip.ComputeEff, Memory: blended.Memory}
	_, pEq, tEq := d.Ctl.SteadyState(blendedEff, steadyTemp)

	sp := &steadyPoint{
		tempC:    tEq,
		freqMHz:  make([]float64, ki.n()),
		powerW:   make([]float64, ki.n()),
		kernelMs: make([]float64, ki.n()),
	}
	slowdownStart := chip.SKU.SlowdownTempC - 2

	for _, k := range wl.Kernels {
		act := effActivity(chip, k)
		f, p := chip.MaxClockUnderCap(d.Ctl.CapW(), tEq, act)
		// Coarse-P-state parts (AMD DPM) show run-to-run state hysteresis:
		// the same chip parks one state lower on some runs depending on the
		// controller's probe timing. This is the dominant term in Corona's
		// large per-GPU repeat variation (paper Fig. 8: 6.06% median, versus
		// 0.44%/0.12% on the fine-stepping V100 clusters) and part of why
		// Corona's frequency-performance correlation is weaker (−0.76).
		if dpmDither && f < chip.MaxUsableClockMHz() {
			f = chip.SKU.StepDown(f)
			p = chip.TotalPower(f, tEq, act)
		}
		// Thermal constraint at this kernel's own sustained power.
		for steadyTemp(p) >= slowdownStart {
			next := chip.SKU.StepDown(f)
			if next >= f {
				break
			}
			f = next
			p = chip.TotalPower(f, tEq, act)
			sp.thermal = true
		}
		di := ki.of(k.Name)
		sp.freqMHz[di] = f
		sp.powerW[di] = p
		sp.kernelMs[di] = k.NominalMs / progressRateAt(chip, k, f)
		if p > sp.maxPower {
			sp.maxPower = p
		}
	}
	if pEq > sp.maxPower {
		sp.maxPower = pEq
	}
	return sp
}

// progressRateAt is progressRate with an explicit clock.
func progressRateAt(chip *gpu.Chip, k workload.Kernel, freqMHz float64) float64 {
	return progressRate(chip, k, freqMHz)
}

// medianScratch is working space for steadyPoint.medians, reused
// across the devices of a run; short fields are replaced by fresh
// allocations, so the zero value works too.
type medianScratch struct {
	vals, pvals, weights []float64
	idx                  []int
}

// medians computes the sampled-median frequency, power, and temperature
// over one iteration's phases: kernels weighted by their durations plus
// the host-stall and barrier-wait phases (the profilers sample
// continuously, so low-activity time pulls the medians down — the
// mechanism behind the wide ML power spreads of paper Figs. 14–17).
func (s *steadyPoint) medians(d *Device, wl workload.Workload, ki *kernelIndex, sysF []float64, hostMs, waitMs float64, buf *medianScratch) (fMHz, powerW, tempC float64) {
	vals, weights, pvals := buf.vals[:0], buf.weights[:0], buf.pvals[:0]
	for _, k := range wl.Kernels {
		di := ki.of(k.Name)
		dur := s.kernelMs[di] * sysF[di]
		vals = append(vals, s.freqMHz[di])
		pvals = append(pvals, s.powerW[di])
		weights = append(weights, dur)
	}
	maxClock := d.Chip.SKU.QuantizeClock(d.Chip.MaxUsableClockMHz())
	if hostMs > 0 {
		// Host stall: clock stays boosted (the controller sees headroom),
		// power drops to near idle.
		vals = append(vals, maxClock)
		pvals = append(pvals, d.Chip.TotalPower(maxClock, s.tempC, gapActivity))
		weights = append(weights, hostMs)
	}
	if waitMs > 0 {
		vals = append(vals, maxClock)
		pvals = append(pvals, d.Chip.TotalPower(maxClock, s.tempC, waitActivity))
		weights = append(weights, waitMs)
	}
	idx := buf.idx
	if cap(idx) < len(vals) {
		idx = make([]int, len(vals))
	}
	idx = idx[:len(vals)]
	fMHz = weightedMedian(vals, weights, idx)
	powerW = weightedMedian(pvals, weights, idx)
	return fMHz, powerW, s.tempC
}
