package main

// layerMetrics assembles a serving workload's per-layer metrics from
// its traced window (results and /v1/stats deltas), the two-replica
// segment, the in-process probe, and the spans, then writes the spans
// out.
func layerMetrics(e *env, workload string, o *outcome, tr *tracer, res []result, dl delta,
	budget, untracedLat []float64, p probeSet) error {
	m := o.layer
	layerStats(m, dl, len(res), budget)
	var bytes []float64
	for _, r := range res {
		if r.err == nil && r.bytes > 0 {
			bytes = append(bytes, float64(r.bytes))
		}
	}
	m.set("service.body_bytes", mean(bytes), "bytes")
	m.set("service.body_bytes.n", float64(len(bytes)), "count")
	lat, _, late := latencies(res)
	m.set("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	fres, fdl, err := fleetPass(e, o)
	if err != nil {
		return err
	}
	fleetMetrics(m, fres, fdl)
	if jobMetrics(m, res) == 0 {
		jobMetrics(m, fres)
	}

	if err := probe(m, tr, p); err != nil {
		return err
	}
	self := tr.selfTimes()
	share, n := tr.uncovered(self)
	m.set("trace.uncovered_share", share, "ratio")
	m.set("trace.uncovered_share.base", n, "count")
	m.set("trace.overhead_ms", quantile(lat, 0.5)-quantile(untracedLat, 0.5), "ms")
	m.set("trace.spans", float64(tr.count()), "count")
	return tr.write(tracePath(e, workload))
}

// jobMetrics sets the jobs metrics from the async jobs among res and
// returns how many there were.
func jobMetrics(m metrics, res []result) int {
	var turn, wait, polls []float64
	for _, r := range res {
		if r.err == nil && r.turnaround > 0 {
			turn = append(turn, ms(r.turnaround))
			wait = append(wait, ms(r.queueWait))
			polls = append(polls, float64(r.polls))
		}
	}
	m.timing("jobs.turnaround_ms", turn, "ms")
	m.timing("jobs.queue_wait_ms", wait, "ms")
	m.set("jobs.polls_per_job", mean(polls), "count")
	return len(turn)
}
