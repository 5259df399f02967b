package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"gpuvar/internal/figures"
	"gpuvar/internal/loadgen"
	"gpuvar/internal/traffic"
)

const (
	// sweepRate is sweep-miss's open-loop Poisson arrival rate in
	// requests per second: about 60% of the workload's capacity_rps on
	// the 2-core machine the benchmark was defined on.
	sweepRate = 40.0
	// capacityChunk is the length of sweep-miss's closed-loop capacity
	// chunks; half of them run before the window and half after.
	capacityChunk = 100
	// sampleEvery is the 1-in-N share of window responses recomputed on
	// a fresh server after the window.
	sampleEvery = 12
	// warmRequests is the length of the closed-loop segment that fills
	// the fleet cache's LRU and the heap before anything is timed.
	warmRequests = 120
	// baseFraction is the share of each cluster's GPUs a sweep measures
	// unless the fraction axis varies it: a quarter keeps one request
	// near 10 ms, so a window completes over a thousand requests.
	baseFraction = "0.25"
	// adaptiveThreshold lets an adaptive sweep skip the points whose
	// estimator bound (about 0.2 on these axes) is within it.
	adaptiveThreshold = "0.25"
)

// sweepGen generates sweep-miss requests. Axis values come from
// continuous seeded ranges and every body is unique, so no two
// requests share a response-cache key. Kinds and clusters are dealt
// from shuffled decks, so every segment has the same mix.
type sweepGen struct {
	r        *rand.Rand
	seen     map[string]bool
	kinds    []string
	clusters []string
}

// kindDeck is one deck of the sweep-miss mix: 70% plain sweeps on the
// base seed (two of them streamed), 10% seed-axis sweeps, 10% adaptive
// sweeps and 10% estimates.
var kindDeck = []string{"plain", "plain", "plain", "plain", "plain", "stream", "stream", "seed", "adaptive", "estimate"}

func newSweepGen(seed uint64) *sweepGen {
	return &sweepGen{r: rand.New(rand.NewPCG(seed, 0x5eed5eed)), seen: map[string]bool{}}
}

func (g *sweepGen) deal(deck *[]string, full []string) string {
	if len(*deck) == 0 {
		*deck = append([]string(nil), full...)
		g.r.Shuffle(len(*deck), func(i, j int) { (*deck)[i], (*deck)[j] = (*deck)[j], (*deck)[i] })
	}
	x := (*deck)[0]
	*deck = (*deck)[1:]
	return x
}

// values draws n distinct-looking settings for an axis.
func (g *sweepGen) values(axis string, n int) []string {
	out := make([]string, n)
	for i := range out {
		var v float64
		switch axis {
		case "powercap":
			v = math.Round((120+180*g.r.Float64())*100) / 100
		case "ambient":
			v = math.Round((-8+16*g.r.Float64())*1000) / 1000
		case "fraction":
			v = math.Round((0.1+0.3*g.r.Float64())*10000) / 10000
		case "seed":
			v = float64(1_000_000 + g.r.IntN(1_000_000_000))
		}
		out[i] = strconv.FormatFloat(v, 'f', -1, 64)
	}
	return out
}

func (g *sweepGen) next() request {
	for {
		kind := g.deal(&g.kinds, kindDeck)
		cl := g.deal(&g.clusters, sweepClusters)
		var axis, extra string
		n := 2
		switch kind {
		case "plain", "stream":
			axis = []string{"powercap", "ambient", "fraction"}[g.r.IntN(3)]
		case "seed":
			axis = "seed"
		case "adaptive":
			axis, n, extra = []string{"powercap", "ambient"}[g.r.IntN(2)], 6, `,"adaptive":true,"threshold":`+adaptiveThreshold
		case "estimate":
			axis, n = []string{"powercap", "ambient"}[g.r.IntN(2)], 6
		}
		if axis != "fraction" {
			extra += `,"fraction":` + baseFraction
		}
		body := fmt.Sprintf(`{"cluster":%q,"axis":%q,"values":[%s]%s}`, cl, axis, strings.Join(g.values(axis, n), ","), extra)
		if g.seen[body] {
			continue
		}
		g.seen[body] = true
		switch kind {
		case "estimate":
			return request{kind: traffic.KindEstimate, method: "POST", path: "/v1/estimate", body: body, label: kind}
		case "stream":
			path, err := loadgen.SweepStreamURL("", body)
			if err != nil {
				panic(err) // the body is generated above; a parse failure is a bug
			}
			return request{kind: traffic.KindStream, method: "GET", path: path, body: body, label: kind}
		default:
			return request{kind: traffic.KindSweep, method: "POST", path: "/v1/sweep", body: body, label: kind}
		}
	}
}

// take generates n requests.
func (g *sweepGen) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// poisson generates an open-loop window: Poisson arrivals at rate over
// seconds, each carrying the next generated request.
func (g *sweepGen) poisson(arrivals *rand.Rand, rate, seconds float64) []request {
	var out []request
	t := 0.0
	for {
		t += arrivals.ExpFloat64() / rate
		if t >= seconds {
			return out
		}
		rq := g.next()
		rq.due = time.Duration(t * float64(time.Second))
		out = append(out, rq)
	}
}

// sweepInputs is every generated input of one sweep-miss run.
type sweepInputs struct {
	warmup   []request   // one per cluster, sent to every fresh server
	warm     []request   // closed loop on the measured server, untimed
	capacity [][]request // closed-loop chunks, half before the window and half after
	window   []request
	sampled  []int // window indices recomputed after the window
	traced   []request
}

func sweepMissInputs(seed uint64, seconds float64) sweepInputs {
	g := newSweepGen(seed)
	arrivals := rand.New(rand.NewPCG(seed, 0xa441a1))
	pick := rand.New(rand.NewPCG(seed, 0x5a3b1e))
	var in sweepInputs
	for _, cl := range sweepClusters {
		body := fmt.Sprintf(`{"cluster":%q,"axis":"powercap","values":[%s]}`, cl, strings.Join(g.values("powercap", 2), ","))
		g.seen[body] = true
		in.warmup = append(in.warmup, request{kind: traffic.KindSweep, method: "POST", path: "/v1/sweep", body: body})
	}
	in.warm = g.take(warmRequests)
	for k := 0; k < capacityChunks; k++ {
		in.capacity = append(in.capacity, g.take(capacityChunk))
	}
	in.window = g.poisson(arrivals, sweepRate, seconds)
	for i := range in.window {
		if pick.IntN(sampleEvery) == 0 {
			in.sampled = append(in.sampled, i)
		}
	}
	in.traced = g.poisson(arrivals, sweepRate, seconds)
	return in
}

func runSweepMiss(e *env) (*outcome, error) {
	o := &outcome{e2e: metrics{}, layer: metrics{}}
	in := sweepMissInputs(e.seed, e.seconds)

	// Set-up, setupRounds times: boot a fresh gpuvard and warm each
	// cluster's base-seed fleet. The first server stays up, untouched by
	// the window, to recompute the sample; the last one is measured.
	var setups []float64
	var oracleSrv, srv *server
	warmSHA := map[string]string{}
	defer func() { oracleSrv.stop(); srv.stop() }()
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
		for _, rq := range in.warmup {
			r := d.do(rq, 0, 0)
			o.attempted++
			if r.err != nil {
				o.fail("warm-up %s: %v", rq.body, r.err)
			} else if w, ok := warmSHA[rq.body]; ok && w != r.sha {
				o.fail("warm-up %s: fresh servers disagree on the response bytes", rq.body)
			}
			warmSHA[rq.body] = r.sha
		}
		setups = append(setups, time.Since(t0).Seconds())
		d.close()
		switch k {
		case 0:
			oracleSrv = s
		case setupRounds - 1:
			srv = s
		default:
			s.stop()
		}
	}
	if o.failed > 0 {
		return o, nil
	}
	checkErrs := func(label string, reqs []request, res []result) {
		for i, r := range res {
			o.attempted++
			if r.err != nil {
				o.fail("%s request %d (%s): %v", label, i, reqs[i].body, r.err)
			}
		}
	}

	d := newSender(srv.base, nil)
	defer d.close()

	// Fill the caches, then measure capacity: nproc closed-loop
	// clients on a segment of the stream.
	warmRes, _ := d.closedLoop(in.warm)
	checkErrs("warm-up", in.warm, warmRes)
	var rates []float64
	var capRes []result
	capacity := func(chunks [][]request) {
		for _, seg := range chunks {
			r, wall := d.closedLoop(seg)
			checkErrs("capacity", seg, r)
			rates = append(rates, float64(len(r))/wall.Seconds())
			capRes = append(capRes, r...)
		}
	}
	capacity(in.capacity[:len(in.capacity)/2])

	// The timed window: Poisson arrivals, open loop.
	before, err := srv.stats()
	if err != nil {
		return nil, err
	}
	res := d.openLoop(in.window)
	after, err := srv.stats()
	if err != nil {
		return nil, err
	}
	checkErrs("window", in.window, res)
	logMix("window", in.window, res)
	dl := diff(before, after)
	logDelta("sweep-miss window", dl, len(in.window))
	capacity(in.capacity[len(in.capacity)/2:])
	logMix("capacity", flatten(in.capacity), capRes)

	// Correctness: recompute the seeded sample serially on the fresh
	// server and compare bytes.
	od := newSender(oracleSrv.base, nil)
	defer od.close()
	o.recompute(od, "window", in.window, res, in.sampled)
	logf("sweep-miss: recomputed %d of %d window responses on a fresh server", len(in.sampled), len(in.window))

	lat, ttfl, late := latencies(res)
	rss, err := srv.rssPeakMB()
	if err != nil {
		return nil, err
	}
	endToEnd(o.e2e, setups, lat, ttfl, capacityRate(rates), rss)
	logf("sweep-miss: %d requests at %.0f/s (%d streams), late p99 %.3f ms, capacity chunks %.0f req/s",
		len(lat), sweepRate, len(ttfl), quantile(late, 0.99), rates)

	if !e.trace || o.failed > 0 {
		return o, nil
	}

	// Traced run: a fresh segment of the same stream with spans on.
	tr := newTracer()
	d.tr = tr
	tres, tdl, budget, err := tracedWindow(srv, d, in.traced)
	if err != nil {
		return nil, err
	}
	checkErrs("traced window", in.traced, tres)
	var p probeSet
	for _, rq := range in.traced {
		if rq.kind == traffic.KindSweep && len(p.serve) < 8 {
			p.serve = append(p.serve, rq)
		}
		if (rq.kind == traffic.KindEstimate || strings.Contains(rq.body, "adaptive")) && len(p.estimate) < 6 {
			p.estimate = append(p.estimate, rq.body)
		}
	}
	p.figures = &figures.Config{}
	if err := layerMetrics(e, "sweep-miss", o, tr, tres, tdl, budget, lat, p); err != nil {
		return nil, err
	}
	return o, nil
}

// recompute sends the sampled requests serially to a server that has
// not answered them and fails every response whose bytes differ.
// Streams and jobs compare with their synchronous twin's body.
func (o *outcome) recompute(od *sender, label string, reqs []request, res []result, sampled []int) {
	for _, i := range sampled {
		rq := reqs[i]
		if res[i].err != nil {
			continue
		}
		sync, err := syncTwin(rq)
		if err != nil {
			o.fail("%s request %d (%s): %v", label, i, rq.body, err)
			continue
		}
		status, body, _, err := od.client.Raw(od.base, sync.method, sync.path, sync.body, "")
		o.attempted++
		if err != nil || status != 200 {
			o.fail("recomputing %s: status %d, %v", rq.body, status, err)
			continue
		}
		sum := sha256.Sum256(body)
		got := res[i].sha
		if rq.kind == traffic.KindStream {
			got = hex.EncodeToString(res[i].payload[:])
		}
		if got != hex.EncodeToString(sum[:]) {
			o.fail("%s request %d (%s): bytes differ from a fresh recompute", label, i, rq.body)
		}
	}
}

func flatten(chunks [][]request) []request {
	var out []request
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}
