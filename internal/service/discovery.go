package service

import (
	"net/http"
	"strings"

	"gpuvar/internal/dispatch"
)

// The discovery document: GET /v1/ enumerates every route the server
// answers, each with its method, stability class, and — for deprecated
// routes — its successor. The same table registers the mux patterns in
// New, so the served surface and its self-description cannot drift: a
// route exists exactly when the document lists it.
//
// Stability classes:
//
//	stable      the supported API surface
//	deprecated  still served until a sunset announced in API.md, with
//	            its successor named (no route is deprecated today)
//	internal    replica-to-replica plumbing; refuses requests that do
//	            not carry the dispatch marker header or that carry an
//	            external client identity (X-API-Key)

// routeDef is one route: the mux registration plus its discovery row.
type routeDef struct {
	method    string
	path      string
	stability string // "stable" | "deprecated" | "internal"
	successor string // deprecated routes name their replacement
	desc      string
	handler   http.HandlerFunc
}

// muxPattern renders the ServeMux pattern. Paths ending in "/" would
// register as subtree matches, so they get the {$} exact-match suffix —
// GET /v1/ must answer only /v1/, not shadow every unrouted /v1/*.
func (rt routeDef) muxPattern() string {
	p := rt.method + " " + rt.path
	if strings.HasSuffix(rt.path, "/") {
		p += "{$}"
	}
	return p
}

// routes is the server's complete surface, in documentation order.
func (s *Server) routes() []routeDef {
	return []routeDef{
		{"GET", "/v1/", "stable", "", "this discovery document", s.handleDiscovery},
		{"GET", "/v1/figures", "stable", "", "catalog of figure/table generators", s.handleFigureList},
		{"GET", "/v1/figures/{id}", "stable", "", "one rendered figure (config via query)", s.handleFigure},
		{"GET", "/v1/experiments/{name}", "stable", "", "one experiment summary (params via query)", s.handleExperiment},
		{"POST", "/v1/campaign", "stable", "", "one campaign simulation (params via body)", s.handleCampaign},
		{"POST", "/v1/sweep", "stable", "", "bounded variant-axis sweep", s.handleSweep},
		{"GET", "/v1/estimate", "stable", "", "analytical sweep estimate (query spelling)", s.handleEstimateGet},
		{"POST", "/v1/estimate", "stable", "", "analytical sweep estimate (body spelling)", s.handleEstimate},
		{"GET", "/v1/stream/sweep", "stable", "", "sweep streamed as NDJSON, one line per variant", s.handleStreamSweep},
		{"GET", "/v1/stream/experiments/{name}", "stable", "", "experiment streamed as NDJSON, one line per shard", s.handleStreamExperiment},
		{"POST", "/v1/jobs", "stable", "", "async submission of a sweep/estimate/campaign", s.handleJobSubmit},
		{"GET", "/v1/jobs", "stable", "", "list live jobs (paginated, filterable)", s.handleJobList},
		{"GET", "/v1/jobs/{id}", "stable", "", "job state + per-shard progress", s.handleJobStatus},
		{"GET", "/v1/jobs/{id}/result", "stable", "", "finished job's response (replayable)", s.handleJobResult},
		{"GET", "/v1/jobs/{id}/stream", "stable", "", "job's NDJSON stream: replayed prefix + live tail", s.handleJobStream},
		{"DELETE", "/v1/jobs/{id}", "stable", "", "cancel or forget a job", s.handleJobDelete},
		{"GET", "/v1/stats", "stable", "", "cache/engine/job/dispatch counters", s.handleStats},
		{"GET", "/v1/replicas", "stable", "", "replica-dispatch membership, health, and counters", s.handleReplicas},
		{"GET", "/v1/healthz", "stable", "", "liveness + the same counters", s.handleHealthz},
		{"GET", "/metrics", "stable", "", "counters in Prometheus text exposition format", s.handleMetrics},
		{"POST", dispatch.ShardsPath, "internal", "", "replica-to-replica shard-batch execution", s.handleInternalShards},
	}
}

// routeInfo is one discovery-document row.
type routeInfo struct {
	Method      string `json:"method"`
	Path        string `json:"path"`
	Stability   string `json:"stability"`
	Successor   string `json:"successor,omitempty"`
	Description string `json:"description"`
}

// discoveryResponse is the GET /v1/ body.
type discoveryResponse struct {
	Service string      `json:"service"`
	API     string      `json:"api_version"`
	Routes  []routeInfo `json:"routes"`
}

func (s *Server) handleDiscovery(w http.ResponseWriter, r *http.Request) {
	out := discoveryResponse{Service: "gpuvard", API: "v1"}
	for _, rt := range s.routes() {
		out.Routes = append(out.Routes, routeInfo{
			Method:      rt.method,
			Path:        rt.path,
			Stability:   rt.stability,
			Successor:   rt.successor,
			Description: rt.desc,
		})
	}
	writeJSON(w, http.StatusOK, out)
}
