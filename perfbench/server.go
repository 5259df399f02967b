package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one gpuvard process under test.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives the process's exit status once
}

// freeAddr reserves a loopback port and releases it for the child.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer boots gpuvard on addr with extra flags and waits until it
// answers its health probe.
func startServer(bin, addr string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gpuvard: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	deadline := t0.Add(20 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("gpuvard exited during boot: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("gpuvard on %s not ready after 20s", addr)
		}
	}
}

// stop terminates the process and waits until it has exited.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// rssPeakMB reads the process's peak resident set (VmHWM).
func (s *server) rssPeakMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

func vmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// snapshot is the subset of GET /v1/stats the benchmark reads.
type snapshot struct {
	Cache struct {
		Hits         uint64 `json:"hits"`
		Misses       uint64 `json:"misses"`
		Coalesced    uint64 `json:"coalesced"`
		Evictions    uint64 `json:"evictions"`
		StaleEntries int    `json:"stale_entries"`
	} `json:"cache"`
	Engine struct {
		JobsStarted     uint64 `json:"jobs_started"`
		ShardsCompleted uint64 `json:"shards_completed"`
		Retries         uint64 `json:"retries"`
		Budget          struct {
			Capacity         int `json:"capacity"`
			InUseInteractive int `json:"in_use_interactive"`
			InUseBatch       int `json:"in_use_batch"`
		} `json:"budget"`
	} `json:"engine"`
	Jobs struct {
		Submitted uint64 `json:"submitted"`
		Shed      uint64 `json:"shed"`
	} `json:"jobs"`
	FleetCache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Evictions uint64 `json:"evictions"`
	} `json:"fleet_cache"`
	Estimate struct {
		Calibrations uint64 `json:"calibrations"`
		ScreenedOut  uint64 `json:"screened_out"`
		FullSim      uint64 `json:"full_sim"`
	} `json:"estimate"`
	Dispatch *struct {
		ShardsLocal    uint64 `json:"shards_local"`
		ShardsRemote   uint64 `json:"shards_remote"`
		LocalFallbacks uint64 `json:"local_fallbacks"`
		WarmShards     uint64 `json:"warm_shards"`
		ColdShards     uint64 `json:"cold_shards"`
		Peers          []struct {
			Healthy bool `json:"healthy"`
		} `json:"peers"`
	} `json:"dispatch"`
}

// awaitPeers waits until the replica's health probe has admitted every
// peer, so dispatch is measured on a settled fleet.
func (s *server) awaitPeers() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := s.stats()
		if err != nil {
			return err
		}
		ready := snap.Dispatch != nil
		if ready {
			for _, p := range snap.Dispatch.Peers {
				ready = ready && p.Healthy
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: peers not healthy after 10s", s.base)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

var statsClient = &http.Client{Timeout: 10 * time.Second}

func (s *server) stats() (snapshot, error) {
	var snap snapshot
	resp, err := statsClient.Get(s.base + "/v1/stats")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /v1/stats: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return snap, nil
}

// delta is the change in the monotone /v1/stats counters over a window.
type delta struct {
	hits, misses, coalesced, evictions   float64
	staleEntries                         float64 // gauge at the window's end
	jobsStarted, shards, retries         float64
	jobsSubmitted, jobsShed              float64
	fleetHits, fleetMisses, fleetEvicted float64
	calibrations, screened, fullSim      float64
	shardsLocal, shardsRemote, fallbacks float64
	warm, cold                           float64
}

func diff(a, b snapshot) delta {
	d := func(x, y uint64) float64 { return float64(y - x) }
	out := delta{
		hits: d(a.Cache.Hits, b.Cache.Hits), misses: d(a.Cache.Misses, b.Cache.Misses),
		coalesced: d(a.Cache.Coalesced, b.Cache.Coalesced), evictions: d(a.Cache.Evictions, b.Cache.Evictions),
		staleEntries:  float64(b.Cache.StaleEntries),
		jobsStarted:   d(a.Engine.JobsStarted, b.Engine.JobsStarted),
		shards:        d(a.Engine.ShardsCompleted, b.Engine.ShardsCompleted),
		retries:       d(a.Engine.Retries, b.Engine.Retries),
		jobsSubmitted: d(a.Jobs.Submitted, b.Jobs.Submitted), jobsShed: d(a.Jobs.Shed, b.Jobs.Shed),
		fleetHits: d(a.FleetCache.Hits, b.FleetCache.Hits), fleetMisses: d(a.FleetCache.Misses, b.FleetCache.Misses),
		fleetEvicted: d(a.FleetCache.Evictions, b.FleetCache.Evictions),
		calibrations: d(a.Estimate.Calibrations, b.Estimate.Calibrations),
		screened:     d(a.Estimate.ScreenedOut, b.Estimate.ScreenedOut),
		fullSim:      d(a.Estimate.FullSim, b.Estimate.FullSim),
	}
	if a.Dispatch != nil && b.Dispatch != nil {
		out.shardsLocal = d(a.Dispatch.ShardsLocal, b.Dispatch.ShardsLocal)
		out.shardsRemote = d(a.Dispatch.ShardsRemote, b.Dispatch.ShardsRemote)
		out.fallbacks = d(a.Dispatch.LocalFallbacks, b.Dispatch.LocalFallbacks)
		out.warm = d(a.Dispatch.WarmShards, b.Dispatch.WarmShards)
		out.cold = d(a.Dispatch.ColdShards, b.Dispatch.ColdShards)
	}
	return out
}

func (d delta) add(o delta) delta {
	return delta{
		hits: d.hits + o.hits, misses: d.misses + o.misses, coalesced: d.coalesced + o.coalesced,
		evictions: d.evictions + o.evictions, staleEntries: d.staleEntries + o.staleEntries,
		jobsStarted: d.jobsStarted + o.jobsStarted, shards: d.shards + o.shards, retries: d.retries + o.retries,
		jobsSubmitted: d.jobsSubmitted + o.jobsSubmitted, jobsShed: d.jobsShed + o.jobsShed,
		fleetHits: d.fleetHits + o.fleetHits, fleetMisses: d.fleetMisses + o.fleetMisses,
		fleetEvicted: d.fleetEvicted + o.fleetEvicted, calibrations: d.calibrations + o.calibrations,
		screened: d.screened + o.screened, fullSim: d.fullSim + o.fullSim,
		shardsLocal: d.shardsLocal + o.shardsLocal, shardsRemote: d.shardsRemote + o.shardsRemote,
		fallbacks: d.fallbacks + o.fallbacks, warm: d.warm + o.warm, cold: d.cold + o.cold,
	}
}

// lookups is every response-cache lookup the window made.
func (d delta) lookups() float64 { return d.hits + d.misses + d.coalesced }

// logDelta prints the window's counter deltas, every ratio with its base.
func logDelta(label string, d delta, requests int) {
	logf("%s /v1/stats deltas over %d requests:", label, requests)
	logf("  cache: %.0f hits / %.0f lookups, %.0f coalesced, %.0f evictions, %.0f stale entries",
		d.hits, d.lookups(), d.coalesced, d.evictions, d.staleEntries)
	logf("  engine: %.0f jobs, %.0f shards, %.0f retries", d.jobsStarted, d.shards, d.retries)
	logf("  jobs: %.0f shed / %.0f submitted", d.jobsShed, d.jobsSubmitted+d.jobsShed)
	logf("  fleet cache: %.0f hits / %.0f lookups, %.0f evictions", d.fleetHits, d.fleetHits+d.fleetMisses, d.fleetEvicted)
	logf("  estimate: %.0f calibrations, %.0f screened out / %.0f screened+simulated", d.calibrations, d.screened, d.screened+d.fullSim)
	if d.shardsLocal+d.shardsRemote > 0 {
		logf("  dispatch: %.0f remote / %.0f shards, %.0f warm / %.0f placed, %.0f local fallbacks",
			d.shardsRemote, d.shardsLocal+d.shardsRemote, d.warm, d.warm+d.cold, d.fallbacks)
	}
}

// layerStats sets the per-layer metrics that come from /v1/stats deltas.
func layerStats(m metrics, d delta, requests int, budgetSamples []float64) {
	m.ratio("service.cache_hit_ratio", d.hits, d.lookups())
	m.set("service.cache_coalesced", d.coalesced, "count")
	m.set("service.cache_evictions", d.evictions, "count")
	m.set("service.stale_entries", d.staleEntries, "count")
	m.ratio("jobs.shed_ratio", d.jobsShed, d.jobsSubmitted+d.jobsShed)
	m.ratio("engine.shards_per_req", d.shards, float64(requests))
	m.ratio("engine.jobs_per_req", d.jobsStarted, float64(requests))
	m.set("engine.budget_in_use", mean(budgetSamples), "tokens")
	m.set("engine.budget_in_use.n", float64(len(budgetSamples)), "count")
	m.set("engine.retries", d.retries, "count")
	m.ratio("cluster.fleet_hit_ratio", d.fleetHits, d.fleetHits+d.fleetMisses)
	m.set("cluster.fleet_evictions", d.fleetEvicted, "count")
	m.set("estimate.calibrations", d.calibrations, "count")
	m.ratio("estimate.screened_ratio", d.screened, d.screened+d.fullSim)
}
