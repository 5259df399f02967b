package main

import (
	"fmt"
	"path/filepath"
	"time"

	"gpuvar/internal/figures"
	"gpuvar/internal/loadgen"
	"gpuvar/internal/traffic"
)

// minBurstRequests is the least number of requests one burst-hot window
// sends. Jobs and streams, a few percent of the default mix, set the
// p99; eight thousand requests put about 80 samples beyond it and keep
// the seeded mix's job share within a few percent of its mean.
const minBurstRequests = 8000

// burstFixture is the committed burst trace with its committed oracle,
// replayed once per run as a second correctness check.
const burstFixture = "testdata/traces/burst.trace"

// burstRequests generates the burst-hot window: traffic.Generate's
// default mix, diurnal curve and burst shape over CloudLab templates,
// with the rate scaled until the window holds minBurstRequests.
func burstRequests(seed uint64, seconds float64) ([]request, error) {
	spec := traffic.GenSpec{
		Seed:     seed,
		Duration: time.Duration(seconds * float64(time.Second)),
		Rate:     1.2 * minBurstRequests / seconds,
	}
	for {
		tr, err := traffic.Generate(spec)
		if err != nil {
			return nil, err
		}
		if n := len(tr.Records); n < minBurstRequests {
			spec.Rate *= 1.05 * minBurstRequests / float64(max(n, 1))
			continue
		}
		reqs := make([]request, len(tr.Records))
		for i, rec := range tr.Records {
			reqs[i] = request{kind: rec.Kind, method: rec.Method, path: rec.Path, body: rec.Body,
				client: rec.Client, due: time.Duration(rec.OffsetUS) * time.Microsecond, label: rec.Kind}
		}
		return reqs, nil
	}
}

// key identifies a request's response: the same key, the same bytes.
func (r request) key() string { return traffic.Fingerprint(r.method, r.path, r.body) }

// distinct returns the first request of every key, in order.
func distinct(reqs []request) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range reqs {
		if k := r.key(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func runBurstHot(e *env) (*outcome, error) {
	o := &outcome{e2e: metrics{}, layer: metrics{}}
	reqs, err := burstRequests(e.seed, e.seconds)
	if err != nil {
		return nil, err
	}
	templates := distinct(reqs)

	// Set-up, setupRounds times for a steady median: boot a fresh
	// gpuvard with default flags and prime every distinct template
	// serially. The first fresh server mints the oracle; the others
	// must agree. The last one is measured.
	oracle := map[string]string{}
	var setups []float64
	var srv *server
	for k := 0; k < setupRounds; k++ {
		t0 := time.Now()
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		s, err := startServer(e.gpuvard, addr)
		if err != nil {
			return nil, err
		}
		d := newSender(s.base, nil)
		for _, rq := range templates {
			r := d.do(rq, 0, 0)
			o.attempted++
			switch {
			case r.err != nil:
				o.fail("priming %s %s: %v", rq.method, rq.path, r.err)
			case k == 0:
				oracle[rq.key()] = r.sha
			case oracle[rq.key()] != r.sha:
				o.fail("priming %s %s: fresh servers disagree on the response bytes", rq.method, rq.path)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		d.close()
		if k < setupRounds-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	if o.failed > 0 {
		return o, nil
	}

	check := func(label string, reqs []request, res []result) {
		for i, r := range res {
			o.attempted++
			if r.err != nil {
				o.fail("%s request %d (%s %s): %v", label, i, reqs[i].method, reqs[i].path, r.err)
			} else if want := oracle[reqs[i].key()]; r.sha != want {
				o.fail("%s request %d (%s %s): sha256 %s, oracle %s", label, i, reqs[i].method, reqs[i].path, r.sha, want)
			}
		}
	}

	// The timed window: open loop on the generated schedule.
	d := newSender(srv.base, nil)
	defer d.close()
	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	res := d.openLoop(reqs)
	after, err := srv.stats()
	if err != nil {
		return nil, err
	}
	check("window", reqs, res)
	logMix("window", reqs, res)
	dl := diff(before, after)
	logDelta("burst-hot window", dl, len(reqs))

	// Capacity: the same stream from nproc closed-loop clients, in
	// chunks.
	var rates []float64
	for _, seg := range chunks(reqs, capacityChunks) {
		r, wall := d.closedLoop(seg)
		check("capacity", seg, r)
		rates = append(rates, float64(len(r))/wall.Seconds())
	}

	// The committed fixture against its committed oracle. loadgen.Replay
	// starts its clock after its concurrency semaphore, so its latencies
	// are only logged, never reported.
	fx, _, err := traffic.DecodeFile(burstFixture)
	if err != nil {
		return nil, err
	}
	rr, err := d.client.Replay(fx, loadgen.ReplayOptions{Bases: []string{srv.base}, Concurrency: nproc, Verify: true})
	if err != nil {
		return nil, err
	}
	o.attempted += len(rr.Records)
	for _, r := range rr.Records {
		if r.Err != nil || r.Mismatch != "" {
			o.fail("fixture record %d (%s): err=%v mismatch=%s", r.Index, r.Kind, r.Err, r.Mismatch)
		}
	}
	logf("fixture %s: %d records replayed, %d mismatches, digest %s", burstFixture, len(rr.Records), rr.Mismatches(), rr.Digest())

	lat, ttfl, late := latencies(res)
	rss, err := srv.rssPeakMB()
	if err != nil {
		return nil, err
	}
	endToEnd(o.e2e, setups, lat, ttfl, capacityRate(rates), rss)
	logf("burst-hot: %d requests (%d streams), late p99 %.3f ms, capacity chunks %.0f req/s",
		len(lat), len(ttfl), quantile(late, 0.99), rates)

	if !e.trace || o.failed > 0 {
		return o, nil
	}

	// Traced run: the same window again with spans on, then the probe.
	tr := newTracer()
	d.tr = tr
	tres, tdl, budget, err := tracedWindow(srv, d, reqs)
	if err != nil {
		return nil, err
	}
	check("traced window", reqs, tres)
	probeInputs := probeSet{figures: &figures.Config{}}
	for _, rq := range templates {
		if rq.kind == traffic.KindFigures || rq.kind == traffic.KindSweep || rq.kind == traffic.KindEstimate {
			probeInputs.serve = append(probeInputs.serve, rq)
		}
		if rq.kind == traffic.KindEstimate {
			probeInputs.estimate = append(probeInputs.estimate, rq.body)
		}
	}
	if err := layerMetrics(e, "burst-hot", o, tr, tres, tdl, budget, lat, probeInputs); err != nil {
		return nil, err
	}
	return o, nil
}

const (
	// setupRounds is how many times a run sets up; setup_s is the median.
	setupRounds = 5
	// capacityChunks is how many closed-loop chunks capacity is measured
	// in.
	capacityChunks = 10
)

// capacityRate is the rate reported from the chunks' rates: their 80th
// percentile. On a shared machine a neighbour's burst slows some chunks;
// the upper quantile reports what the program sustains between them.
func capacityRate(rates []float64) float64 { return quantile(rates, 0.8) }

// chunks splits reqs into n contiguous segments.
func chunks(reqs []request, n int) [][]request {
	var out [][]request
	for k := 0; k < n; k++ {
		out = append(out, reqs[k*len(reqs)/n:(k+1)*len(reqs)/n])
	}
	return out
}

// endToEnd sets the end-to-end metrics shared by the serving workloads.
func endToEnd(m metrics, setups, lat, ttfl []float64, capacity, rss float64) {
	m.set("setup_s", quantile(setups, 0.5), "s")
	m.set("p50_ms", quantile(lat, 0.5), "ms")
	m.set("p99_ms", tail(lat, 0.99), "ms")
	m.set("ttfl_p50_ms", quantile(ttfl, 0.5), "ms")
	m.set("ttfl_p90_ms", tail(ttfl, 0.9), "ms")
	m.set("capacity_rps", capacity, "1/s")
	m.set("rss_peak_mb", rss, "MB")
	logf("samples: %d latencies, %d time-to-first-line, %d set-ups", len(lat), len(ttfl), len(setups))
}

// tracedWindow replays reqs open loop with spans on, reading /v1/stats
// around it and sampling the engine's worker budget while it runs.
func tracedWindow(srv *server, d *sender, reqs []request) ([]result, delta, []float64, error) {
	before, err := srv.stats()
	if err != nil {
		return nil, delta{}, nil, err
	}
	stop := make(chan struct{})
	sampled := make(chan []float64, 1)
	go func() {
		var xs []float64
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- xs
				return
			case <-tick.C:
				if s, err := srv.stats(); err == nil {
					xs = append(xs, float64(s.Engine.Budget.InUseInteractive+s.Engine.Budget.InUseBatch))
				}
			}
		}
	}()
	res := d.openLoop(reqs)
	close(stop)
	budget := <-sampled
	after, err := srv.stats()
	if err != nil {
		return nil, delta{}, nil, err
	}
	return res, diff(before, after), budget, nil
}

// tracePath is where a run's spans are written.
func tracePath(e *env, workload string) string {
	return filepath.Join(e.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, e.seed))
}
