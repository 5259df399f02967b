package service

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"gpuvar/internal/dispatch"
	"gpuvar/internal/engine"
	"gpuvar/internal/jobs"
)

// Async jobs: the heaviest computations of the suite (Summit-scale
// variant sweeps, long campaigns) outlive any reasonable request
// deadline, so instead of a held connection the service accepts the
// same payloads as asynchronous jobs:
//
//	POST   /v1/jobs              submit → 202 + poll URL
//	GET    /v1/jobs              list live jobs (paginated/filtered)
//	GET    /v1/jobs/{id}         lifecycle state + per-shard progress
//	GET    /v1/jobs/{id}/result  the finished response (replayable)
//	GET    /v1/jobs/{id}/stream  the job's NDJSON stream (jobstream.go)
//	DELETE /v1/jobs/{id}         cancel (active) / forget (terminal)
//
// A job's computation is the synchronous handler's computation, run
// through the same response cache and singleflight under the job's own
// context instead of a request deadline. That sharing is the
// byte-identity guarantee: a finished job's result is exactly the body
// the synchronous endpoint would have returned (and the job primes the
// cache, so a later synchronous request replays it as a hit). Progress
// comes from the engine's shard counters via the job's context, with
// one consequence of the sharing: a job that COALESCES onto an
// already-in-flight identical computation (or replays a cached result)
// reports 0/0 progress — the shards belong to the flight that started
// first — and simply completes when that flight does. Its state, not
// its shard counters, is the liveness signal.

// maxJobBody bounds the submission body (an envelope around one of the
// POST payloads).
const maxJobBody = 1 << 16

// jobRequest is the POST /v1/jobs envelope: the kind of computation
// plus its payload, which uses the exact schema of the corresponding
// synchronous endpoint.
type jobRequest struct {
	// Kind selects the payload: "sweep" (POST /v1/sweep's body),
	// "estimate" (POST /v1/estimate's body — the sweep schema, every
	// point answered analytically), or "campaign" (POST /v1/campaign's
	// body).
	Kind string `json:"kind"`
	// Class selects the scheduling class: "batch" (the default — async
	// jobs are throughput work) or "interactive" to jump ahead of
	// saturated batch queues and draw from the interactive share of the
	// engine's worker budget.
	Class    string           `json:"class,omitempty"`
	Sweep    *sweepRequest    `json:"sweep,omitempty"`
	Estimate *sweepRequest    `json:"estimate,omitempty"`
	Campaign *campaignRequest `json:"campaign,omitempty"`
}

// jobComputation validates and normalizes a job envelope into its cache
// key, scheduling class, and computation — shared by the submit handler
// and the envelope fuzz target so they can never drift. status is the
// HTTP code to use when err != nil.
func jobComputation(req *jobRequest) (key string, class engine.Class, compute func(ctx context.Context) (*cachedResponse, error), status int, err error) {
	// Async jobs default to the batch class; the empty spelling of
	// ParseClass means interactive, so map it explicitly.
	class = engine.Batch
	if req.Class != "" {
		class, err = engine.ParseClass(req.Class)
		if err != nil {
			return "", 0, nil, http.StatusBadRequest, err
		}
	}
	switch req.Kind {
	case "sweep":
		if req.Sweep == nil {
			return "", 0, nil, http.StatusBadRequest,
				errors.New(`kind "sweep" requires a "sweep" payload (the POST /v1/sweep body)`)
		}
		key, compute, status, err = sweepComputation(req.Sweep)
	case "estimate":
		if req.Estimate == nil {
			return "", 0, nil, http.StatusBadRequest,
				errors.New(`kind "estimate" requires an "estimate" payload (the POST /v1/estimate body)`)
		}
		key, compute, status, err = estimateComputation(req.Estimate)
	case "campaign":
		if req.Campaign == nil {
			return "", 0, nil, http.StatusBadRequest,
				errors.New(`kind "campaign" requires a "campaign" payload (the POST /v1/campaign body)`)
		}
		key, compute, status, err = campaignComputation(req.Campaign)
	default:
		return "", 0, nil, http.StatusBadRequest,
			fmt.Errorf(`bad kind %q: want "sweep", "estimate", or "campaign"`, req.Kind)
	}
	if err != nil {
		return "", 0, nil, status, err
	}
	return key, class, compute, 0, nil
}

// jobView is one job in wire form: the manager's snapshot plus the
// URLs a client polls, streams, and fetches.
type jobView struct {
	jobs.Snapshot
	URL       string `json:"url"`
	StreamURL string `json:"stream_url,omitempty"`
	ResultURL string `json:"result_url,omitempty"`
}

func jobURL(id string) string { return "/v1/jobs/" + id }

func (s *Server) jobView(snap jobs.Snapshot) jobView {
	v := jobView{Snapshot: snap, URL: jobURL(snap.ID), StreamURL: jobURL(snap.ID) + "/stream"}
	if snap.State == jobs.StateDone {
		v.ResultURL = jobURL(snap.ID) + "/result"
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !decodeBody(w, r, maxJobBody, &req) {
		return
	}
	// Validation and normalization happen synchronously, so a malformed
	// submission is rejected with 400/404 up front; only well-formed
	// computations become jobs.
	key, class, compute, status, err := jobComputation(&req)
	if err != nil {
		writeError(w, status, errCode(err, status), "%v", err)
		return
	}

	// The job's replayable stream: the start line (carrying the body
	// prefix) is appended before submission, so even a follower that
	// attaches instantly replays a complete prefix (see jobstream.go).
	st, err := newJobStream(&req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}

	// The job runs the computation through the response cache: it
	// coalesces with identical synchronous requests and other jobs, and
	// its complete result lands in the LRU for both paths to replay.
	// The stream's shard sink rides the job's context; a job that
	// coalesces onto another flight emits no shard lines, and its
	// summary line carries the rest of the body.
	client := requestClient(r.Context())
	id, err := s.jobs.Submit(client, class, func(ctx context.Context) (*cachedResponse, error) {
		// The job manager runs computations under its own context, so the
		// request-scoped dispatcher attachment must be re-applied here for
		// async sweeps to fan out across replicas like synchronous ones.
		if s.dispatcher != nil {
			ctx = dispatch.NewContext(ctx, s.dispatcher)
		}
		res, _, err := s.cache.do(st.sinkContext(ctx), key, compute)
		return res, err
	})
	if errors.Is(err, jobs.ErrClientQueueFull) {
		// Per-client shedding: this client's own backlog is at its bound
		// while the class-wide queue still has room for other tenants.
		// The scope in the message and code tells the client that backing
		// off (or spreading keys) is on them specifically.
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusTooManyRequests, "client_queue_full",
			"client %q's batch job queue is full (%d of this client's jobs queued); retry later or submit with class \"interactive\"",
			client, s.clientQueued(client))
		return
	}
	if errors.Is(err, jobs.ErrQueueFull) {
		// Class-wide shedding: the whole batch queue is saturated. 429 +
		// Retry-After is backpressure, not failure — the client should
		// resubmit (or use class "interactive" for genuinely urgent work).
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusTooManyRequests, "queue_full",
			"batch job queue is full (%d queued); retry later or submit with class \"interactive\"",
			s.jobs.Stats().QueuedBatch)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	s.registerJobStream(id, st)
	done, ok := s.jobs.Done(id)
	go func() {
		if ok {
			<-done
		}
		s.finishJobStream(id, st)
	}()
	snap, _ := s.jobs.Get(id)
	w.Header().Set("Location", jobURL(id))
	writeJSON(w, http.StatusAccepted, s.jobView(snap))
}

// clientQueued reads one client's current batch queue depth from the
// manager's per-client stats (0 if the client is unknown).
func (s *Server) clientQueued(client string) int {
	for _, cs := range s.jobs.Stats().Clients {
		if cs.Client == client {
			return cs.Queued
		}
	}
	return 0
}

// jobListResponse is the GET /v1/jobs body. NextPageToken appears only
// on paginated listings that have more pages.
type jobListResponse struct {
	Jobs          []jobView `json:"jobs"`
	NextPageToken string    `json:"next_page_token,omitempty"`
}

// handleJobList lists jobs in creation order (CreatedAt, then ID — the
// manager's deterministic snapshot order). Without parameters the
// behavior is the original unpaginated listing; ?limit= and
// ?page_token= paginate it deterministically, and ?client= / ?state=
// filter before pagination so a page token remains valid within one
// filtered view.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	for k := range q {
		switch k {
		case "limit", "page_token", "client", "state":
		default:
			// The same strictness the POST bodies get from
			// DisallowUnknownFields: a typoed knob must fail, not silently
			// list everything.
			writeError(w, http.StatusBadRequest, "bad_request", "unknown parameter %q", k)
			return
		}
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad_request", "bad limit %q: want a positive integer", v)
			return
		}
		limit = n
	}
	var afterCreated int64
	var afterID string
	usingToken := false
	if tok := q.Get("page_token"); tok != "" {
		var err error
		afterCreated, afterID, err = decodePageToken(tok)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_page_token", "bad page_token %q: %v", tok, err)
			return
		}
		usingToken = true
	}
	client := q.Get("client")
	state := q.Get("state")
	if state != "" {
		switch jobs.State(state) {
		case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
		default:
			writeError(w, http.StatusBadRequest, "bad_request",
				"bad state %q: want queued, running, done, failed, or canceled", state)
			return
		}
	}

	out := jobListResponse{Jobs: []jobView{}}
	for _, snap := range s.jobs.Snapshots() {
		if client != "" && snap.Client != client {
			continue
		}
		if state != "" && string(snap.State) != state {
			continue
		}
		if usingToken && !afterToken(snap, afterCreated, afterID) {
			continue
		}
		if limit > 0 && len(out.Jobs) == limit {
			// One more matching job exists past the page: hand out the
			// token that resumes right after the page's last entry.
			last := out.Jobs[len(out.Jobs)-1]
			out.NextPageToken = encodePageToken(last.CreatedAt.UnixNano(), last.ID)
			break
		}
		out.Jobs = append(out.Jobs, s.jobView(snap))
	}
	writeJSON(w, http.StatusOK, out)
}

// Page tokens are an opaque encoding of the last-listed job's position
// in creation order (created-at nanos + ID, the snapshot sort key), so
// a page boundary stays stable as jobs finish, expire, or arrive.
func encodePageToken(createdUnixNano int64, id string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(strconv.FormatInt(createdUnixNano, 10) + ":" + id))
}

func decodePageToken(tok string) (createdUnixNano int64, id string, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, "", errors.New("not a page token")
	}
	created, id, ok := strings.Cut(string(raw), ":")
	if !ok {
		return 0, "", errors.New("not a page token")
	}
	n, err := strconv.ParseInt(created, 10, 64)
	if err != nil {
		return 0, "", errors.New("not a page token")
	}
	return n, id, nil
}

// afterToken reports whether snap sorts strictly after the token's
// position in creation order.
func afterToken(snap jobs.Snapshot, created int64, id string) bool {
	c := snap.CreatedAt.UnixNano()
	if c != created {
		return c > created
	}
	return snap.ID > id
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job_not_found", "unknown job %q (finished jobs expire after their TTL)", id)
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(snap))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, snap, ok := s.jobs.Result(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job_not_found", "unknown job %q (finished jobs expire after their TTL)", id)
		return
	}
	switch snap.State {
	case jobs.StateDone:
		// Replay the stored bytes — the same bytes the synchronous
		// endpoint serves, replayable on every fetch until the job
		// expires.
		w.Header().Set("Content-Type", res.contentType)
		w.Header().Set("X-Cache", "job")
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
	case jobs.StateCanceled:
		writeError(w, http.StatusGone, "job_canceled", "job %s was canceled", id)
	case jobs.StateFailed:
		err := s.jobs.Err(id)
		var se *statusError
		switch {
		case errors.As(err, &se):
			writeError(w, se.status, errCode(err, se.status), "%v", se.err)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", "job %s exceeded the job deadline (%s)", id, s.opts.JobTimeout)
		default:
			writeError(w, http.StatusInternalServerError, "internal", "job %s failed: %s", id, snap.Error)
		}
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job_not_ready", "job %s is %s; poll %s until it is done", id, snap.State, jobURL(id))
	}
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.jobs.Delete(id)
	if !ok {
		// Same envelope and message as the status/result 404s: a client
		// cleaning up an expired job learns why the ID is gone.
		writeError(w, http.StatusNotFound, "job_not_found", "unknown job %q (finished jobs expire after their TTL)", id)
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(snap))
}
