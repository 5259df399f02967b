package service

// Replayable job streams: every async job records the NDJSON lines it
// would have streamed — the same streamLine schema and payload pieces
// as GET /v1/stream/sweep — into a bounded, replayable line log
// (jobs.Log). GET /v1/jobs/{id}/stream attaches at any point in the
// job's life: it first replays every previously emitted line, then
// follows live appends until the terminal summary/error line.
// Concatenating the payloads of a completed job stream reproduces the
// job's result body byte for byte.
//
// The lines are pieces of the result body's own encoder, so they need
// no checking against it:
//
//   - Submit appends the start line: the body prefix (sweepPrefix or
//     requestPrefix), so a follower attaching right after the 202
//     replays real content.
//   - A sweep job's computation runs with a shard sink on its context
//     (the engine.WithSink channel the streaming endpoint uses): each
//     completed variant appends its sweepVariantChunk. A job that
//     COALESCES onto an in-flight identical computation, or replays a
//     cached result, emits no shard lines; the shards belong to the
//     flight that started first.
//   - A finalizer appends the terminal line once the job ends and closes
//     the log. A finished job's summary payload is the result body past
//     the bytes already emitted: the suffix when every variant streamed
//     live, everything after the prefix when none did (coalesced, cached,
//     estimate and campaign jobs). A failed or canceled job gets an
//     in-band error line.
//
// A journal-recovered job predates its process, so its log is rebuilt
// pre-filled and closed: an empty start line, then the terminal line
// carrying the whole body. Every job stream is served by one follow
// loop.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"gpuvar/internal/core"
	"gpuvar/internal/engine"
	"gpuvar/internal/jobs"
)

// jobStreamLogLines sizes one job's line log: start + one line per
// top-level shard + terminal, with generous headroom. Adaptive sweeps
// can carry up to maxEstimateVariants shards, so the bound scales with
// the job instead of assuming the plain-sweep cap. A producer exceeding
// it truncates the log (jobs.Log) and the stream ends in an in-band
// error — it can no longer replay the body.
func jobStreamLogLines(shards int) int {
	if n := 2*shards + 16; n > 4*maxSweepVariants {
		return n
	}
	return 4 * maxSweepVariants
}

// jobStream is one job's recorded stream. The unsynchronized fields
// (emitted, broken) are written strictly in happens-before order: the
// submit handler (start line) → the engine's serialized sink calls →
// the finalizer (which runs after the job's done channel closes, itself
// after the computation returned).
type jobStream struct {
	sweep  bool             // sweep job: variants stream as shard lines
	axis   core.VariantAxis // sweep only
	shards int              // expected top-level shard count (sweep only)
	marked bool             // adaptive sweep: chunks carry source/bound
	log    *jobs.Log

	emitted int  // payload bytes appended: always a prefix of the result body
	broken  bool // a line failed to render; later payloads would not fit
}

// newJobStream builds the stream for a VALIDATED job request (the
// payloads are normalized in place by jobComputation) and appends its
// start line. It fails only if the request section cannot be encoded,
// in which case the job's own body could not be either.
func newJobStream(req *jobRequest) (*jobStream, error) {
	st := &jobStream{}
	var prefix string
	var err error
	switch req.Kind {
	case "sweep":
		// A normalized axis field is the canonical axis name.
		st.sweep, st.axis = true, core.VariantAxis(req.Sweep.Axis)
		st.shards, st.marked = len(req.Sweep.Values), req.Sweep.Adaptive
		prefix, err = sweepPrefix(*req.Sweep)
	case "estimate":
		// An estimate computes in one piece (no top-level engine shards
		// to stream); the summary line carries all of it.
		prefix, err = sweepPrefix(*req.Estimate)
	default: // "campaign"
		prefix, err = requestPrefix(*req.Campaign)
	}
	if err != nil {
		return nil, err
	}
	st.log = jobs.NewLog(jobStreamLogLines(st.shards))
	st.emit(streamLine{Kind: "start", Shards: st.shards, Shard: -1, Payload: prefix})
	return st, nil
}

// emit renders one line into the log and counts its payload bytes.
func (st *jobStream) emit(l streamLine) {
	b, err := json.Marshal(l)
	if err != nil {
		st.broken = true
		return
	}
	st.log.Append(string(b))
	st.emitted += len(l.Payload)
}

// sinkContext attaches the stream's shard sink to a sweep job's
// computation context. The engine serializes sink calls in shard order,
// so the emitted chunks follow the prefix exactly as in renderSweep.
func (st *jobStream) sinkContext(ctx context.Context) context.Context {
	if !st.sweep {
		return ctx
	}
	sink := engine.ShardSink(func(shard, total int, v any) {
		if st.broken {
			return // a lost chunk must not be followed by later shards
		}
		p := v.(core.VariantPoint)
		chunk, err := sweepVariantChunk(st.axis, st.marked, p, shard, total)
		if err != nil {
			st.broken = true
			return
		}
		val := p.Value
		st.emit(streamLine{Kind: "shard", Shards: total, Shard: shard, Value: &val, Payload: chunk})
	})
	return engine.WithSink(ctx, sink)
}

// registerJobStream publishes a job's stream for followers. Stale
// entries (jobs the manager has since evicted) are pruned once the
// table outgrows the retention bound.
func (s *Server) registerJobStream(id string, st *jobStream) {
	s.streams.mu.Lock()
	if s.streams.byID == nil {
		s.streams.byID = make(map[string]*jobStream)
	}
	if len(s.streams.byID) > s.opts.MaxRetainedJobs {
		for old := range s.streams.byID {
			if _, ok := s.jobs.Get(old); !ok {
				delete(s.streams.byID, old)
			}
		}
	}
	s.streams.byID[id] = st
	s.streams.mu.Unlock()
}

// registerRecoveredJobStreams gives every journal-recovered job (all
// terminal) its pre-filled, closed log: an empty start line, then the
// terminal line carrying the whole result body.
func (s *Server) registerRecoveredJobStreams() {
	for _, snap := range s.jobs.Snapshots() {
		st := &jobStream{log: jobs.NewLog(jobStreamLogLines(0))}
		st.emit(streamLine{Kind: "start", Shard: -1})
		s.finishJobStream(snap.ID, st)
		s.registerJobStream(snap.ID, st)
	}
}

func (s *Server) jobStream(id string) *jobStream {
	s.streams.mu.Lock()
	defer s.streams.mu.Unlock()
	return s.streams.byID[id]
}

// finishJobStream appends a terminal job's last line and closes the
// log. A finished job's summary payload is the part of the result body
// not yet emitted: the lines so far are pieces of the body's own
// encoder, in order, so they are always its prefix.
func (s *Server) finishJobStream(id string, st *jobStream) {
	defer st.log.Close()
	fail := func(format string, args ...any) {
		st.emit(streamLine{Kind: "error", Shards: st.shards, Shard: -1, Error: fmt.Sprintf(format, args...)})
	}
	res, snap, ok := s.jobs.Result(id)
	if !ok {
		fail("job %s was evicted before its stream completed; its result is gone", id)
		return
	}
	switch snap.State {
	case jobs.StateDone:
		if st.broken || st.emitted > len(res.body) {
			fail("internal: the job stream lost a line; fetch %s/result", jobURL(id))
			return
		}
		sum := sha256.Sum256(res.body)
		st.emit(streamLine{
			Kind:    "summary",
			Shards:  st.shards,
			Shard:   -1,
			Payload: string(res.body[st.emitted:]),
			Bytes:   len(res.body),
			SHA256:  hex.EncodeToString(sum[:]),
		})
	case jobs.StateCanceled:
		fail("job %s was canceled", id)
	default: // failed
		fail("job %s failed: %s", id, snap.Error)
	}
}

// handleJobStream serves GET /v1/jobs/{id}/stream: replay the job's
// buffered lines from the beginning, then follow live appends until the
// log closes (the job's terminal line) or the client disconnects. The
// producer never blocks on this connection — lines come from the log,
// not from engine workers.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.jobStream(id)
	if _, ok := s.jobs.Get(id); !ok || st == nil {
		// st is nil only in the instant between a job's submission and
		// the registration of its stream.
		writeError(w, http.StatusNotFound, "job_not_found", "unknown job %q (finished jobs expire after their TTL)", id)
		return
	}

	flush := startNDJSON(w)
	for from := 0; ; {
		lines, done, more := st.log.Next(from)
		for _, ln := range lines {
			if _, err := io.WriteString(w, ln+"\n"); err != nil {
				return // client gone; the producer is unaffected
			}
		}
		if len(lines) > 0 {
			flush()
		}
		from += len(lines)
		if done {
			break
		}
		if more != nil {
			select {
			case <-more:
			case <-r.Context().Done():
				return
			}
		}
	}
	if st.log.Truncated() {
		// The bound was exceeded and the buffered history dropped — no
		// byte-identical replay is possible. In-band error, like every
		// other mid-stream failure.
		_ = json.NewEncoder(w).Encode(streamLine{Kind: "error", Shards: st.shards, Shard: -1,
			Error: fmt.Sprintf("stream history truncated; fetch %s/result for the complete body", jobURL(id))})
		flush()
	}
}
