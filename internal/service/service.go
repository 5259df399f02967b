// Package service exposes the characterization suite as a long-running
// HTTP service: the full figure/table catalog, ad-hoc experiments, and
// campaign simulations, all as JSON.
//
// Routes (all under /v1; see API.md for the full reference):
//
//	GET    /v1/                   discovery document: every route with
//	                              its method, stability class (stable,
//	                              deprecated, internal), and successor
//	GET    /v1/figures            catalog of figure/table generators
//	GET    /v1/figures/{id}       one rendered figure (config via query)
//	GET    /v1/experiments/{name} one experiment summary (params via query)
//	POST   /v1/campaign           one campaign simulation (params via body)
//	POST   /v1/sweep              a bounded variant-axis sweep (powercap,
//	                              seed, ambient, or fraction)
//	GET    /v1/stream/sweep       the same sweep streamed as NDJSON, one
//	                              line per variant (see stream.go)
//	GET    /v1/stream/experiments/{name}
//	                              an experiment streamed as NDJSON, one
//	                              line per shard
//	POST   /v1/jobs               async submission of a sweep/campaign →
//	                              202 + poll URL (see jobs.go); "class"
//	                              selects interactive or batch (default)
//	                              scheduling, and saturated batch queues
//	                              shed with 429 + Retry-After
//	GET    /v1/jobs               list live jobs (creation order;
//	                              ?limit/?page_token paginate,
//	                              ?client/?state filter)
//	GET    /v1/jobs/{id}          job state + per-shard progress
//	GET    /v1/jobs/{id}/result   finished job's response (replayable)
//	GET    /v1/jobs/{id}/stream   the job's NDJSON stream: replayed
//	                              prefix + live tail (see jobstream.go)
//	DELETE /v1/jobs/{id}          cancel / forget a job
//	GET    /v1/stats              cache/session/engine/job counters,
//	                              per-class queue depth, budget occupancy,
//	                              per-client queue accounting
//	GET    /v1/healthz            liveness + the same counters
//	GET    /v1/replicas           replica-dispatch membership + counters
//	POST   /v1/internal/shards    replica-to-replica shard execution
//	                              (internal: refuses external clients)
//	GET    /metrics               the same counters in Prometheus text
//	                              exposition format (see metrics.go)
//
// Multi-tenancy: every request carries a client identity — the
// X-API-Key header when present, else the remote address — and the
// async job queue schedules batch jobs across clients with weighted
// fair (stride) scheduling plus a per-client queue bound, so one
// flooding tenant cannot starve or crowd out another (see
// internal/jobs). Every response echoes or generates an X-Request-ID,
// and every non-2xx body is the one JSON error envelope
// {"error": ..., "code": ...} with a stable machine-readable code.
//
// Every expensive response is produced through a fingerprint-keyed LRU
// result cache with cancellation-safe singleflight coalescing
// (resultCache): the fingerprint canonicalizes the request (route +
// normalized parameters), identical concurrent requests share one
// computation, and repeats replay stored bytes. Below the response
// cache sit the reuse layers PR 1 built — the figures session
// singleflight, the process-wide fleet cache, and per-device
// steady-point memoization — so even a cache-miss request pays only for
// what no earlier request has computed.
//
// Cancellation contract (PR 3): every handler derives a per-request
// deadline (Options.RequestTimeout, default 30s) from the client's
// context, and the whole compute stack under it — figures, core,
// campaign, sweeps — runs on the shared execution engine
// (internal/engine), which stops dispatching work shards the moment the
// context ends. A client disconnect or deadline therefore aborts the
// computation mid-run. Coalescing survives cancellation: a computation
// belongs to the set of requests waiting on it, not to the request that
// started it — the first requester canceling hands the flight to the
// remaining waiters, the last waiter canceling aborts it, and only
// complete results are ever cached.
//
// Concurrency audit (the contract go test -race enforces end to end):
// cross-request shared state is confined to internally locked caches
// (resultCache, sessionPool, figures.Session, cluster.FleetCache); all
// mutable simulation state (sim.Device, rng streams, thermal-node
// copies) is created per job inside the owning goroutine and never
// escapes it. Handlers therefore run with no global lock.
package service

import (
	"bytes"
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuvar/internal/cluster"
	"gpuvar/internal/dispatch"
	"gpuvar/internal/engine"
	"gpuvar/internal/estimate"
	"gpuvar/internal/faults"
	"gpuvar/internal/figures"
	"gpuvar/internal/jobs"
	"gpuvar/internal/traffic"
)

// Options configures a server. The zero value serves the quick-settings
// catalog with modest cache bounds.
type Options struct {
	// Figures is the default figure configuration; per-request query
	// parameters override individual fields.
	Figures figures.Config
	// ResponseCacheSize bounds the rendered-response LRU (default 256).
	ResponseCacheSize int
	// SessionCacheSize bounds the number of live figure sessions, one
	// per distinct config (default 4). Sessions hold experiment results,
	// so this is the server's main memory knob.
	SessionCacheSize int
	// RequestTimeout bounds each request's computation (default 30s;
	// negative disables). The deadline composes with the client's own
	// context, so a disconnect aborts even earlier.
	RequestTimeout time.Duration
	// JobTimeout bounds one async job's computation (default 10m;
	// negative disables). Async jobs exist precisely because heavy
	// computations outlive RequestTimeout, so this budget is the
	// longer, batch-class one.
	JobTimeout time.Duration
	// MaxRunningJobs bounds concurrently executing async jobs per
	// scheduling class (default 2). Classes have independent slots, so
	// batch saturation never delays an interactive-class job.
	MaxRunningJobs int
	// MaxQueuedJobs bounds batch-class jobs waiting for an execution
	// slot (default 16; negative disables shedding). A batch submission
	// past the bound answers 429 + Retry-After instead of growing an
	// unbounded backlog.
	MaxQueuedJobs int
	// MaxQueuedJobsPerClient bounds one client's queued batch jobs
	// (default 8; negative disables). A single client past its own
	// bound sheds with 429 naming the client scope while the class-wide
	// queue still has room for everyone else.
	MaxQueuedJobsPerClient int
	// ClientWeights sets per-client fair-share weights for the batch
	// queue (default weight 1). A weight-2 client's backlog dispatches
	// twice as often as a weight-1 client's.
	ClientWeights map[string]int
	// MaxRetainedJobs bounds finished jobs kept for polling (default
	// 256; oldest evicted first). The default leaves generous headroom
	// so a submitter briefly descheduled between its 202 and its first
	// poll cannot have its job evicted out from under it by a burst of
	// faster jobs.
	MaxRetainedJobs int
	// JobTTL bounds how long a finished job's result stays fetchable
	// (default 10m; negative disables age-based expiry).
	JobTTL time.Duration
	// DataDir, when set, makes async jobs crash-safe: lifecycle
	// transitions and result bytes are journaled to
	// <DataDir>/jobs.journal and replayed on the next boot, so finished
	// jobs survive a restart (and interrupted ones resurface as explicit
	// failures instead of vanished IDs). Empty keeps jobs in-memory only.
	DataDir string
	// JournalSync selects the journal's fsync policy (default
	// jobs.SyncTerminal). Only meaningful with DataDir.
	JournalSync jobs.SyncPolicy
	// EstimateAnchors sets how many full-simulation anchor runs each
	// estimator calibration performs (clamped to [2, 5]; 0 keeps the
	// process default of 3). The setting is process-wide: the
	// calibrator, like the fleet cache, is shared state.
	EstimateAnchors int
	// Peers lists sibling gpuvard replicas' base URLs. Non-empty turns
	// on distributed dispatch: plain sweep shards route across the
	// replica set under RoutePolicy, with health-probe-driven eject/
	// readmit and graceful local fallback (see internal/dispatch).
	Peers []string
	// RoutePolicy selects the shard-routing policy: "roundrobin",
	// "leastloaded", or "affinity" (the default — rendezvous-hash the
	// shard's fleet fingerprint so repeat variants land where the fleet
	// cache is warm). Only meaningful with Peers.
	RoutePolicy string
	// SelfURL is this replica's advertised base URL — its name in the
	// rendezvous hash. Set it to the same string the peers' -peers
	// lists use, so the whole fleet agrees on affinity owners.
	SelfURL string
	// PeerProbeInterval is the peer health-probe cadence (default 1s;
	// negative disables the prober — tests drive probes directly).
	PeerProbeInterval time.Duration
	// RecordTrace, when set, records every replayable request to the
	// named traffic-trace file (see internal/traffic): offsets from
	// server start, client identity, request bytes, and the response
	// status + sha256. Observability routes and job polls are counted
	// but not recorded. The file is truncated on boot — one process
	// run is one recording session.
	RecordTrace string
}

// Server answers catalog queries. Create with New; it is an
// http.Handler.
type Server struct {
	opts     Options
	cache    *resultCache
	sessions *sessionPool
	jobs     *jobs.Manager[*cachedResponse]
	journal  *jobs.Journal // nil without Options.DataDir
	mux      *http.ServeMux
	started  time.Time
	// streams holds each live job's replayable NDJSON line log, keyed
	// by job ID (see jobstream.go); pruned against the job manager.
	streams struct {
		mu   sync.Mutex
		byID map[string]*jobStream
	}
	// degradedServes counts responses answered from the stale store
	// after a compute failure; lastDegraded (unix nanos) drives the
	// healthz ok|degraded status.
	degradedServes atomic.Uint64
	lastDegraded   atomic.Int64
	// dispatcher routes sweep shards across the replica set; nil when
	// Options.Peers is empty (single-process serving).
	dispatcher *dispatch.Dispatcher
	// recorder appends replayable requests to a traffic trace; nil
	// without Options.RecordTrace (see record.go).
	recorder *traffic.Recorder
}

// New assembles a server. It errors only when Options.DataDir is set
// and the job journal there cannot be opened or replayed.
func New(opts Options) (*Server, error) {
	if opts.ResponseCacheSize <= 0 {
		opts.ResponseCacheSize = 256
	}
	if opts.SessionCacheSize <= 0 {
		opts.SessionCacheSize = 4
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	if opts.JobTimeout == 0 {
		opts.JobTimeout = 10 * time.Minute
	}
	if opts.JobTimeout < 0 {
		opts.JobTimeout = 0 // jobs.Options reads 0 as "no deadline"
	}
	if opts.MaxRunningJobs <= 0 {
		opts.MaxRunningJobs = 2
	}
	if opts.MaxQueuedJobs == 0 {
		opts.MaxQueuedJobs = 16
	}
	if opts.MaxRetainedJobs <= 0 {
		opts.MaxRetainedJobs = 256
	}
	if opts.JobTTL == 0 {
		opts.JobTTL = 10 * time.Minute
	}
	if opts.EstimateAnchors > 0 {
		estimate.SetAnchorCount(opts.EstimateAnchors)
	}
	opts.Figures = opts.Figures.Normalized()
	s := &Server{
		opts:     opts,
		cache:    newResultCache(opts.ResponseCacheSize),
		sessions: newSessionPool(opts.SessionCacheSize),
		jobs: jobs.New[*cachedResponse](jobs.Options{
			MaxRunning:         opts.MaxRunningJobs,
			MaxQueuedBatch:     opts.MaxQueuedJobs,
			MaxQueuedPerClient: opts.MaxQueuedJobsPerClient,
			ClientWeights:      opts.ClientWeights,
			MaxRetained:        opts.MaxRetainedJobs,
			TTL:                opts.JobTTL,
			Timeout:            opts.JobTimeout,
		}),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	if opts.DataDir != "" {
		j, err := jobs.OpenJournal(filepath.Join(opts.DataDir, "jobs.journal"), opts.JournalSync)
		if err != nil {
			return nil, err
		}
		if err := s.jobs.AttachJournal(j, encodeCachedResponse, decodeCachedResponse); err != nil {
			j.Close()
			return nil, err
		}
		s.journal = j
		s.registerRecoveredJobStreams()
	}
	if opts.RecordTrace != "" {
		rec, err := traffic.NewRecorder(opts.RecordTrace, "gpuvard live capture")
		if err != nil {
			if s.journal != nil {
				s.journal.Close()
			}
			return nil, err
		}
		s.recorder = rec
	}
	if len(opts.Peers) > 0 {
		pol, err := dispatch.ParsePolicy(opts.RoutePolicy)
		if err != nil {
			return nil, err
		}
		d, err := dispatch.New(dispatch.Options{
			Self:          opts.SelfURL,
			Peers:         opts.Peers,
			Policy:        pol,
			ProbeInterval: opts.PeerProbeInterval,
		})
		if err != nil {
			return nil, err
		}
		s.dispatcher = d
		d.Start()
	}
	// Routes register from the same table the GET /v1/ discovery
	// document renders, so the served surface and its self-description
	// cannot drift (see discovery.go).
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.muxPattern(), rt.handler)
	}
	return s, nil
}

// Close releases the server's persistent resources (the job journal,
// the traffic recorder, and the peer health prober). Safe on a server
// with none of them.
func (s *Server) Close() error {
	if s.dispatcher != nil {
		s.dispatcher.Close()
	}
	var err error
	if s.recorder != nil {
		err = s.recorder.Close()
	}
	if s.journal != nil {
		if jerr := s.journal.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// journaledResponse is cachedResponse's persistent form (the job
// journal's result payload).
type journaledResponse struct {
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	Body        []byte `json:"body"`
}

func encodeCachedResponse(res *cachedResponse) ([]byte, error) {
	if res == nil {
		return nil, errors.New("service: nil response")
	}
	return json.Marshal(journaledResponse{Status: res.status, ContentType: res.contentType, Body: res.body})
}

func decodeCachedResponse(b []byte) (*cachedResponse, error) {
	var jr journaledResponse
	if err := json.Unmarshal(b, &jr); err != nil {
		return nil, err
	}
	if jr.Status == 0 {
		return nil, errors.New("service: journaled response missing status")
	}
	return &cachedResponse{status: jr.Status, contentType: jr.ContentType, body: jr.Body}, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Every response — routed or not — carries the request's ID (echoed
	// when the client sent a well-formed one, generated otherwise) and
	// runs with the derived client identity on its context.
	w.Header().Set("X-Request-ID", requestID(r))
	r = r.WithContext(withClientID(r.Context(), deriveClient(r)))
	if s.recorder != nil {
		s.serveRecorded(w, r)
		return
	}
	s.serveRouted(w, r)
}

// serveRouted dispatches to the route table, answering unmatched
// requests with the API's JSON error envelope.
func (s *Server) serveRouted(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		// No route matched: net/http would answer plain text. Run the
		// mux's own fallback against a throwaway recorder to learn what it
		// decided (404, or 405 with an Allow set), then answer with that
		// status in the same JSON error envelope as every other non-2xx
		// response on this API.
		h, _ := s.mux.Handler(r)
		var rec statusRecorder
		rec.h = http.Header{}
		h.ServeHTTP(&rec, r)
		status := rec.status
		if status == 0 {
			status = http.StatusNotFound
		}
		if allow := rec.h.Get("Allow"); allow != "" {
			w.Header().Set("Allow", allow)
		}
		if status == http.StatusMethodNotAllowed {
			writeError(w, status, "method_not_allowed", "method %s not allowed for %s", r.Method, r.URL.Path)
		} else {
			writeError(w, status, "unknown_route", "unknown route %s %s", r.Method, r.URL.Path)
		}
		return
	}
	s.mux.ServeHTTP(w, r)
}

// clientIDKey carries the request's derived client identity through the
// context to the job queue and the per-client counters.
type clientIDKey struct{}

func withClientID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, clientIDKey{}, id)
}

// requestClient returns the context's client identity ("anonymous" when
// the request did not pass through ServeHTTP, e.g. in direct handler
// tests).
func requestClient(ctx context.Context) string {
	if id, ok := ctx.Value(clientIDKey{}).(string); ok && id != "" {
		return id
	}
	return "anonymous"
}

// deriveClient maps a request to its client identity: the X-API-Key
// header when present (the multi-tenant spelling), else the remote
// host. The identity is a fairness and accounting key, not an
// authentication boundary.
func deriveClient(r *http.Request) string {
	if key := r.Header.Get("X-API-Key"); key != "" {
		return sanitizeClientID(key)
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return host
	}
	if r.RemoteAddr != "" {
		return r.RemoteAddr
	}
	return "anonymous"
}

// sanitizeClientID bounds an API key's length and character set so it
// is safe as a JSON value, a Prometheus label, and a log token.
func sanitizeClientID(key string) string {
	const maxLen = 64
	var b strings.Builder
	for _, r := range key {
		if b.Len() >= maxLen {
			break
		}
		if r > 0x20 && r < 0x7f {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "anonymous"
	}
	return b.String()
}

// requestID echoes a well-formed client-supplied X-Request-ID (ASCII
// printable, at most 128 bytes) or mints a fresh one, so every response
// is traceable whether or not the client participates.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= 128 {
		ok := true
		for i := 0; i < len(id); i++ {
			if id[i] <= 0x20 || id[i] >= 0x7f {
				ok = false
				break
			}
		}
		if ok {
			return id
		}
	}
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "r-unavailable"
	}
	return "r" + hex.EncodeToString(buf[:])
}

// statusRecorder captures the status and headers the mux's fallback
// handler would have sent, discarding its plain-text body.
type statusRecorder struct {
	h      http.Header
	status int
}

func (r *statusRecorder) Header() http.Header { return r.h }
func (r *statusRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}
func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return len(b), nil
}

// CacheStats exposes the response-cache counters (used by tests and the
// stats endpoint).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// errorBody is the JSON error envelope of every non-2xx response: a
// human-readable message plus a stable machine-readable code clients
// can branch on without parsing prose.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// writeError is the single writer of every non-2xx response body. Codes
// are part of the API surface — stable snake_case identifiers such as
// queue_full, client_queue_full, job_not_found, job_not_ready, bad_axis,
// bad_request, not_found, method_not_allowed, unknown_route,
// deadline_exceeded, canceled, gone, internal.
func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	if code == "" {
		code = codeForStatus(status)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// codeForStatus maps an HTTP status to its default error code, for
// paths where no more specific code applies.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMisdirectedRequest:
		return "wrong_replica"
	case http.StatusBadGateway:
		return "replica_unavailable"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "gone"
	case http.StatusTooManyRequests:
		return "queue_full"
	case statusClientClosedRequest:
		return "canceled"
	case http.StatusGatewayTimeout:
		return "deadline_exceeded"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return "error"
	}
}

// codedError attaches a stable error code to a validation failure so
// the handler that eventually writes it can surface a more specific
// code than the status default (e.g. bad_axis instead of bad_request).
type codedError struct {
	code string
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

func withCode(code string, err error) error { return &codedError{code: code, err: err} }

// errCode resolves an error's code: an explicit codedError wins, else
// the status default.
func errCode(err error, status int) string {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	return codeForStatus(status)
}

// statusError carries an HTTP status through the cache's error path,
// letting a computation classify its own failure (e.g. a bad injection
// node is the client's mistake, not a server fault).
type statusError struct {
	status int
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// statusClientClosedRequest is nginx's convention for "the client went
// away before we could answer" — no standard code exists. loadgen
// counts it (and 504) as aborted rather than failed.
const statusClientClosedRequest = 499

// requestContext derives the per-request compute context: the client's
// context (so a disconnect cancels the work) bounded by the server's
// request timeout, carrying the replica dispatcher when one is
// configured.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := s.dispatchContext(r)
	if s.opts.RequestTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.opts.RequestTimeout)
}

// dispatchContext attaches the replica dispatcher — and the request's
// remote-only routing directive — to the compute context. Context
// values survive into the singleflight's detached flight context and
// the streaming path, so coalesced and streamed computations dispatch
// exactly like direct ones. (Async jobs run under the job manager's own
// context; handleJobSubmit re-attaches at the compute closure.)
func (s *Server) dispatchContext(r *http.Request) context.Context {
	ctx := r.Context()
	if s.dispatcher == nil {
		return ctx
	}
	ctx = dispatch.NewContext(ctx, s.dispatcher)
	if r.Header.Get(routeDirectiveHeader) == routeRemote {
		ctx = dispatch.WithRemoteOnly(ctx)
	}
	return ctx
}

// serveCached runs one computation through the response cache and
// replays the result, tagging it with an X-Cache header (hit, miss, or
// coalesced) so clients and the load generator can tell the layers
// apart. The computation runs under the request's deadline-bounded
// context; if it is cut short, the request answers 504 (deadline) or
// 499 (client disconnect) while the shared flight lives on for any
// remaining waiters. A compute error returning a *statusError keeps its
// status; anything else is a 500.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, compute func(ctx context.Context) (*cachedResponse, error)) {
	// Warm keys replay without paying for a deadline context.
	if res, ok := s.cache.lookup(key); ok {
		w.Header().Set("Content-Type", res.contentType)
		w.Header().Set("X-Cache", "hit")
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, state, err := s.cache.do(ctx, key, compute)
	if err != nil {
		status := http.StatusInternalServerError
		msg := err.Error()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			status = http.StatusGatewayTimeout
			msg = fmt.Sprintf("computation exceeded the request deadline (%s)", s.opts.RequestTimeout)
		case errors.Is(err, context.Canceled):
			status = statusClientClosedRequest
			msg = "request canceled"
		default:
			var se *statusError
			if errors.As(err, &se) {
				status, msg = se.status, se.err.Error()
			}
		}
		code := errCode(err, status)
		// Degraded serving: a server-side failure (5xx) of a key whose
		// last good bytes still sit in the stale store answers those bytes
		// instead — the computation is pure, so "stale" is merely
		// "evicted", not "wrong". Client errors (4xx) and cancellations
		// (499) stay errors: the stale bytes are not what that client is
		// owed.
		if status >= 500 {
			if stale, ok := s.cache.staleLookup(key); ok {
				s.degradedServes.Add(1)
				s.lastDegraded.Store(time.Now().UnixNano())
				w.Header().Set("Content-Type", stale.contentType)
				w.Header().Set("X-Cache", "stale")
				w.Header().Set("X-Degraded", "stale")
				w.WriteHeader(stale.status)
				_, _ = w.Write(stale.body)
				return
			}
		}
		writeError(w, status, code, "%s", msg)
		return
	}
	w.Header().Set("Content-Type", res.contentType)
	w.Header().Set("X-Cache", state)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// decodeBody reads a POST body of at most limit bytes into v with the
// strictness every POST route shares (an unknown field is a 400). It
// answers a bad body itself and reports whether the handler goes on.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "reading body: %v", err)
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decoding body: %v", err)
		return false
	}
	return true
}

// jsonResponse marshals v into a cacheable 200 response.
func jsonResponse(v any) (*cachedResponse, error) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return jsonBody(append(body, '\n')), nil
}

// jsonBody wraps a complete JSON body as a cacheable 200 response.
func jsonBody(body []byte) *cachedResponse {
	return &cachedResponse{status: http.StatusOK, contentType: "application/json", body: body}
}

// requestPrefix opens every sweep, estimate, experiment and campaign
// body: the brace and the normalized request section, known before any
// computation runs. Streams and job streams send it as their start
// line; the sync encoders begin their bodies with it.
func requestPrefix(req any) (string, error) {
	reqJSON, err := json.MarshalIndent(req, "  ", "  ")
	return "{\n  \"request\": " + string(reqJSON) + ",\n", err
}

// encodeAfterRequest is the body encoder of the responses whose
// remainder is one piece (experiments, campaigns): prefix, then rest —
// the response without its request section — marshalled as it nests in
// the body, its opening "{\n" dropped.
func encodeAfterRequest(prefix string, rest any) (*cachedResponse, error) {
	b, err := json.MarshalIndent(rest, "", "  ")
	if err != nil {
		return nil, err
	}
	body := make([]byte, 0, len(prefix)+len(b))
	body = append(append(append(body, prefix...), b[len("{\n"):]...), '\n')
	return jsonBody(body), nil
}

// figureInfo is one catalog row.
type figureInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

func (s *Server) handleFigureList(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, "figures-list", func(context.Context) (*cachedResponse, error) {
		gens := figures.AllWithExtensions()
		out := make([]figureInfo, len(gens))
		for i, g := range gens {
			out[i] = figureInfo{ID: g.ID, Title: g.Title}
		}
		return jsonResponse(struct {
			Figures []figureInfo `json:"figures"`
		}{out})
	})
}

// figureResponse is one rendered figure.
type figureResponse struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Config figures.Config `json:"config"`
	Output string         `json:"output"`
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g, ok := figures.Lookup(id)
	if !ok {
		known := figures.IDs()
		sort.Strings(known)
		writeError(w, http.StatusNotFound, "unknown_figure", "unknown figure id %q (known: %v)", id, known)
		return
	}
	cfg, err := s.figureConfig(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	key := fmt.Sprintf("figure|%s|%+v", id, cfg)
	s.serveCached(w, r, key, func(ctx context.Context) (*cachedResponse, error) {
		var buf bytes.Buffer
		if err := figures.Generate(ctx, id, s.sessions.get(cfg), &buf); err != nil {
			return nil, err
		}
		return jsonResponse(figureResponse{
			ID:     id,
			Title:  g.Title,
			Config: cfg,
			Output: buf.String(),
		})
	})
}

// figureConfig builds the request's normalized figure config: server
// defaults overridden field-by-field from the query string.
func (s *Server) figureConfig(r *http.Request) (figures.Config, error) {
	cfg := s.opts.Figures
	q := r.URL.Query()
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return cfg, fmt.Errorf("bad seed %q: %v", v, err)
		}
		cfg.Seed = n
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"iterations", &cfg.Iterations},
		{"ml_iterations", &cfg.MLIterations},
		{"runs", &cfg.Runs},
	} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("bad %s %q: want a positive integer", p.name, v)
			}
			*p.dst = n
		}
	}
	if v := q.Get("summit_fraction"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 || f > 1 {
			return cfg, fmt.Errorf("bad summit_fraction %q: want 0 < f <= 1", v)
		}
		cfg.SummitFraction = f
	}
	return cfg.Normalized(), nil
}

// statsResponse is the observability snapshot: response-cache counters
// (hit/miss/coalesced/aborted, in-flight flights), live sessions, the
// execution engine's job/shard progress, the async-job manager's
// lifecycle counters, and the fleet cache's occupancy/eviction counters
// — enough for loadgen and ops to see what the server is computing
// right now and what memory the caches hold.
type statsResponse struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Cache         CacheStats              `json:"cache"`
	Sessions      int                     `json:"sessions"`
	Engine        engine.Stats            `json:"engine"`
	Jobs          jobs.Stats              `json:"jobs"`
	FleetCache    cluster.FleetCacheStats `json:"fleet_cache"`
	Estimate      estimate.Stats          `json:"estimate"`
	// DegradedServes counts responses answered from the stale store
	// after a compute failure (the X-Degraded: stale responses); Faults
	// lists the armed fault-injection sites with their trigger counters
	// (absent in normal serving).
	DegradedServes uint64             `json:"degraded_serves"`
	Faults         []faults.SiteStats `json:"faults,omitempty"`
	// Dispatch is the replica-dispatch counter snapshot (absent in
	// single-process serving).
	Dispatch *dispatch.Stats `json:"dispatch,omitempty"`
	// Traffic is the trace recorder's counter snapshot (absent unless
	// the server was started with -record-trace).
	Traffic *traffic.RecorderStats `json:"traffic,omitempty"`
}

func (s *Server) snapshot() statsResponse {
	out := statsResponse{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Cache:          s.cache.Stats(),
		Sessions:       s.sessions.len(),
		Engine:         engine.Snapshot(),
		Jobs:           s.jobs.Stats(),
		FleetCache:     cluster.DefaultFleetCache.Stats(),
		Estimate:       estimate.Snapshot(),
		DegradedServes: s.degradedServes.Load(),
		Faults:         faults.Snapshot(),
	}
	if s.dispatcher != nil {
		ds := s.dispatcher.Stats()
		out.Dispatch = &ds
	}
	if s.recorder != nil {
		ts := s.recorder.Stats()
		out.Traffic = &ts
	}
	return out
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.snapshot())
}

// healthzResponse wraps the counters with a liveness bit and the
// serving status: "ok" in normal operation, "degraded" while the
// fault-injection registry is armed (chaos is by definition not normal
// serving) or within degradedWindow of a stale-store serve. Degraded is
// still alive — OK stays true, so orchestration liveness probes do not
// restart a server that is successfully riding out failures.
type healthzResponse struct {
	OK     bool   `json:"ok"`
	Status string `json:"status"`
	statsResponse
}

// degradedWindow is how long a stale serve keeps healthz reporting
// degraded — long enough for a scraper on a coarse interval to see it.
const degradedWindow = 60 * time.Second

func (s *Server) healthStatus() string {
	if faults.Armed() {
		return "degraded"
	}
	if last := s.lastDegraded.Load(); last != 0 && time.Since(time.Unix(0, last)) < degradedWindow {
		return "degraded"
	}
	return "ok"
}

// handleHealthz answers liveness probes and exposes the same counters
// as /v1/stats, so a single probe shows both that the server is up and
// whether the engine is draining or wedged.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(healthzResponse{OK: true, Status: s.healthStatus(), statsResponse: s.snapshot()})
}

// sessionPool is the LRU of live figure sessions, keyed by normalized
// config. Sessions are where experiment results accumulate, so bounding
// them bounds the server's working set; the process-wide fleet cache
// (cluster.DefaultFleetCache) persists across evictions, so a re-created
// session re-runs experiments but never re-instantiates fleets.
type sessionPool struct {
	mu    sync.Mutex
	max   int
	ll    *list.List               // front = most recently used
	byKey map[string]*list.Element // key → element holding *sessionSlot
}

type sessionSlot struct {
	key     string
	session *figures.Session
}

func newSessionPool(max int) *sessionPool {
	if max < 1 {
		max = 1
	}
	return &sessionPool{max: max, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// get returns the session for a normalized config, creating (and
// possibly evicting) under the lock — session construction is cheap;
// the expensive work happens inside the session's own singleflight.
func (p *sessionPool) get(cfg figures.Config) *figures.Session {
	key := fmt.Sprintf("%+v", cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.byKey[key]; ok {
		p.ll.MoveToFront(el)
		return el.Value.(*sessionSlot).session
	}
	slot := &sessionSlot{key: key, session: figures.NewSession(cfg)}
	p.byKey[key] = p.ll.PushFront(slot)
	for p.ll.Len() > p.max {
		tail := p.ll.Back()
		p.ll.Remove(tail)
		delete(p.byKey, tail.Value.(*sessionSlot).key)
	}
	return slot.session
}

func (p *sessionPool) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ll.Len()
}
