package main

import (
	"encoding/json"
	"math/rand/v2"
	"strconv"
	"time"

	"gpuvar/internal/traffic"
)

const (
	// fleetRequests is the length of the traced two-replica segment,
	// sent open loop at fleetRate requests per second; every
	// fleetJobEvery-th request is an async sweep job.
	fleetRequests = 80
	fleetRate     = 20.0
	fleetJobEvery = 5
)

// fleetInputs generates the two-replica segment from the run's seed:
// sweep-miss requests, every fleetJobEvery-th one a plain sweep
// submitted as an async job.
func fleetInputs(seed uint64) []request {
	g := newSweepGen(seed ^ 0xf1ee7)
	arrivals := rand.New(rand.NewPCG(seed, 0xf1ee7))
	out := make([]request, fleetRequests)
	t := 0.0
	for i := range out {
		t += arrivals.ExpFloat64() / fleetRate
		rq := g.next()
		if i%fleetJobEvery == fleetJobEvery-1 {
			for rq.label != "plain" {
				rq = g.next()
			}
			rq = request{kind: traffic.KindJobs, method: "POST", path: "/v1/jobs",
				body: `{"kind":"sweep","sweep":` + rq.body + `}`, label: "job"}
		}
		rq.due = time.Duration(t * float64(time.Second))
		out[i] = rq
	}
	return out
}

// fleetPass sends the two-replica segment alternately to two gpuvard
// replicas peered under the default affinity policy, each with half
// the worker budget, and checks every response against a fresh single
// server. Every traced run makes it: it measures the dispatch layer on
// each workload, and the jobs layer where a workload's own traffic has
// no jobs.
func fleetPass(e *env, o *outcome) ([]result, delta, error) {
	reqs := fleetInputs(e.seed)
	var addrs [2]string
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, delta{}, err
		}
		addrs[i] = a
	}
	peers := "http://" + addrs[0] + ",http://" + addrs[1]
	var reps []*server
	defer func() {
		for _, s := range reps {
			s.stop()
		}
	}()
	for _, addr := range addrs {
		s, err := startServer(e.gpuvard, addr, "-peers", peers, "-self-url", "http://"+addr, "-budget", strconv.Itoa(nproc/2))
		if err != nil {
			return nil, delta{}, err
		}
		reps = append(reps, s)
	}
	var before [2]snapshot
	for i, s := range reps {
		if err := s.awaitPeers(); err != nil {
			return nil, delta{}, err
		}
		var err error
		if before[i], err = s.stats(); err != nil {
			return nil, delta{}, err
		}
	}
	for i := range reqs {
		reqs[i].base = reps[i%2].base
	}
	d := newSender("", nil)
	defer d.close()
	res := d.openLoop(reqs)
	var dl delta
	for i, s := range reps {
		after, err := s.stats()
		if err != nil {
			return nil, delta{}, err
		}
		dl = dl.add(diff(before[i], after))
	}
	logDelta("two-replica segment", dl, len(reqs))

	all := make([]int, len(reqs))
	for i, r := range res {
		all[i] = i
		o.attempted++
		if r.err != nil {
			o.fail("two-replica request %d (%s): %v", i, reqs[i].body, r.err)
		}
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, delta{}, err
	}
	oracle, err := startServer(e.gpuvard, addr)
	if err != nil {
		return nil, delta{}, err
	}
	defer oracle.stop()
	od := newSender(oracle.base, nil)
	defer od.close()
	o.recompute(od, "two-replica", reqs, res, all)
	return res, dl, nil
}

// fleetMetrics sets the dispatch metrics from the two-replica segment.
func fleetMetrics(m metrics, res []result, dl delta) {
	m.ratio("dispatch.remote_share", dl.shardsRemote, dl.shardsLocal+dl.shardsRemote)
	m.ratio("dispatch.warm_ratio", dl.warm, dl.warm+dl.cold)
	m.set("dispatch.local_fallbacks", dl.fallbacks, "count")
	var lat []float64
	for _, r := range res {
		if r.err == nil && r.turnaround == 0 {
			lat = append(lat, ms(r.lat))
		}
	}
	m.timing("dispatch.sweep_ms", lat, "ms")
}

// syncTwin is the synchronous request whose body a response must equal:
// the payload of a sweep stream and the result of a sweep job are the
// POST /v1/sweep bytes.
func syncTwin(rq request) (request, error) {
	switch rq.kind {
	case traffic.KindStream:
		return request{method: "POST", path: "/v1/sweep", body: rq.body}, nil
	case traffic.KindJobs:
		var env struct {
			Sweep json.RawMessage `json:"sweep"`
		}
		if err := json.Unmarshal([]byte(rq.body), &env); err != nil {
			return request{}, err
		}
		return request{method: "POST", path: "/v1/sweep", body: string(env.Sweep)}, nil
	}
	return rq, nil
}
