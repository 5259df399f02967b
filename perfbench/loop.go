package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpuvar/internal/loadgen"
	"gpuvar/internal/traffic"
)

// request is one generated request. kind is a traffic kind: streams
// run through loadgen's NDJSON reader, jobs through the submit, poll
// and result cycle, everything else as one HTTP exchange.
type request struct {
	kind   string
	method string
	path   string
	body   string
	client string        // X-API-Key
	base   string        // server base URL, when not the sender's
	due    time.Duration // open loop: send time from the window's start
	label  string        // mix entry, for per-entry reports
}

// result is one request's outcome.
type result struct {
	lat     time.Duration // scheduled send (closed loop: send) → last byte
	ttfl    time.Duration // streams: scheduled send → first NDJSON line
	late    time.Duration // how far the dispatcher ran behind schedule
	sha     string        // hex sha256: raw NDJSON for streams, result bytes for jobs
	payload [32]byte      // streams: sha256 of the reassembled payload
	bytes   int
	// Jobs only.
	polls      int
	queueWait  time.Duration // submit → first poll showing the job running
	turnaround time.Duration // submit → result bytes
	err        error
}

// sender issues requests to one gpuvard base URL over at most nproc
// connections, using loadgen's single-request helpers.
type sender struct {
	base   string
	client *loadgen.Client
	tr     *tracer
}

// pollInterval paces job status polls: short, so that poll sleeps do
// not dominate a job's turnaround.
const pollInterval = 2 * time.Millisecond

func newSender(base string, tr *tracer) *sender {
	transport := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	return &sender{
		base:   base,
		client: &loadgen.Client{HTTP: &http.Client{Transport: transport, Timeout: 2 * time.Minute}},
		tr:     tr,
	}
}

func (d *sender) close() { d.client.HTTP.CloseIdleConnections() }

// raw performs one HTTP exchange inside a span.
func (d *sender) raw(req, parent int, name, base, method, path, body, key string) (int, []byte, string, error) {
	id := d.tr.id()
	t0 := time.Now()
	status, b, cache, err := d.client.Raw(base, method, path, body, key)
	d.tr.add(id, parent, req, name, t0, time.Now())
	return status, b, cache, err
}

// do performs one request; req and parent identify it in the trace.
func (d *sender) do(rq request, req, parent int) result {
	var r result
	base := d.base
	if rq.base != "" {
		base = rq.base
	}
	switch rq.kind {
	case traffic.KindStream:
		id := d.tr.id()
		t0 := time.Now()
		sr, err := d.client.StreamFetch(base+rq.path, rq.client)
		d.tr.add(id, parent, req, "service.stream", t0, time.Now())
		r.err, r.sha, r.payload, r.ttfl = err, sr.RawSHA, sr.PayloadSHA, sr.TTFL
	case traffic.KindJobs:
		r = d.job(rq, base, req, parent)
	default:
		status, body, _, err := d.raw(req, parent, "service.http", base, rq.method, rq.path, rq.body, rq.client)
		r.bytes, r.err = len(body), err
		sum := sha256.Sum256(body)
		r.sha = hex.EncodeToString(sum[:])
		if err == nil && status != http.StatusOK {
			r.err = fmt.Errorf("%s %s: %d: %s", rq.method, rq.path, status, loadgen.FirstLine(body))
		}
	}
	return r
}

// job drives one async submission through submit, poll and result.
func (d *sender) job(rq request, base string, req, parent int) result {
	var r result
	t0 := time.Now()
	status, body, _, err := d.raw(req, parent, "jobs.submit", base, "POST", rq.path, rq.body, rq.client)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("POST %s: %d: %s", rq.path, status, loadgen.FirstLine(body))
	}
	var view struct {
		State string `json:"state"`
		URL   string `json:"url"`
	}
	if err == nil {
		err = json.Unmarshal(body, &view)
	}
	for err == nil && view.State != "done" {
		if time.Since(t0) > time.Minute {
			err = fmt.Errorf("job %s not done after a minute", view.URL)
			break
		}
		if r.polls > 0 {
			id := d.tr.id()
			s := time.Now()
			time.Sleep(pollInterval)
			d.tr.add(id, parent, req, "loadgen.poll_sleep", s, time.Now())
		}
		status, body, _, err = d.raw(req, parent, "jobs.poll", base, "GET", view.URL, "", rq.client)
		r.polls++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET %s: %d: %s", view.URL, status, loadgen.FirstLine(body))
		}
		if err == nil {
			err = json.Unmarshal(body, &view)
		}
		if err == nil && r.queueWait == 0 && view.State != "queued" {
			r.queueWait = time.Since(t0)
		}
		if err == nil && (view.State == "failed" || view.State == "canceled") {
			err = fmt.Errorf("job %s ended %s", view.URL, view.State)
		}
	}
	if err != nil {
		r.err = err
		return r
	}
	status, body, _, err = d.raw(req, parent, "jobs.result", base, "GET", view.URL+"/result", "", rq.client)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s/result: %d: %s", view.URL, status, loadgen.FirstLine(body))
	}
	r.turnaround = time.Since(t0)
	sum := sha256.Sum256(body)
	r.sha, r.bytes, r.err = hex.EncodeToString(sum[:]), len(body), err
	return r
}

// openLoop sends every request at its scheduled time from one
// dispatcher, over nproc workers. Each request's clock starts at its
// scheduled time, so a stall's wait on later requests is counted.
func (d *sender) openLoop(reqs []request) []result {
	res := make([]result, len(reqs))
	sched := make([]time.Time, len(reqs))
	// Sized to the number of sends: the dispatcher must never block on
	// busy workers, or it would fall behind its schedule.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				res[i] = d.timed(reqs[i], i+1, sched[i], res[i].late)
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i, rq := range reqs {
		due := start.Add(rq.due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res[i].late = time.Since(due)
		sched[i] = due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// timed runs one request under a root span that starts at from.
func (d *sender) timed(rq request, req int, from time.Time, late time.Duration) result {
	root := d.tr.id()
	began := time.Now()
	d.tr.add(d.tr.id(), root, req, "loadgen.wait", from, began)
	r := d.do(rq, req, root)
	end := time.Now()
	d.tr.add(root, 0, req, "request", from, end)
	r.lat = end.Sub(from)
	if rq.kind == traffic.KindStream {
		r.ttfl += began.Sub(from)
	}
	r.late = late
	return r
}

// closedLoop runs the requests in order from nproc clients, each
// sending its next request when the previous one completes, and
// returns the results and the wall time.
func (d *sender) closedLoop(reqs []request) ([]result, time.Duration) {
	res := make([]result, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				res[i] = d.timed(reqs[i], i+1, time.Now(), 0)
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// latencies collects the successful results' end-to-end latencies and
// stream TTFLs in milliseconds, and the dispatcher's lateness.
func latencies(res []result) (lat, ttfl, late []float64) {
	for _, r := range res {
		late = append(late, ms(r.late))
		if r.err != nil {
			continue
		}
		lat = append(lat, ms(r.lat))
		if r.ttfl > 0 {
			ttfl = append(ttfl, ms(r.ttfl))
		}
	}
	return lat, ttfl, late
}

// logMix reports each mix entry's request count and mean latency.
func logMix(label string, reqs []request, res []result) {
	lat := map[string][]float64{}
	var order []string
	for i, r := range res {
		l := reqs[i].label
		if _, ok := lat[l]; !ok {
			order = append(order, l)
		}
		lat[l] = append(lat[l], ms(r.lat))
	}
	sort.Strings(order)
	var all []float64
	for _, r := range res {
		all = append(all, ms(r.lat))
	}
	tail := quantile(all, 0.99)
	for _, l := range order {
		beyond := 0
		for _, x := range lat[l] {
			if x >= tail {
				beyond++
			}
		}
		logf("  %s %-9s %5d requests, mean %8.2f ms, p50 %8.2f ms, p99 %8.2f ms, %d at or beyond the overall p99",
			label, l, len(lat[l]), mean(lat[l]), quantile(lat[l], 0.5), quantile(lat[l], 0.99), beyond)
	}
}
