package jobs

import "sync"

// Log is a bounded, replayable append-only line log — the backing store
// of a job's live stream (GET /v1/jobs/{id}/stream). The producer (the
// job's engine sink and its finalizer) appends rendered NDJSON lines;
// any number of followers replay from an offset and then block for
// more, so a client attaching mid-run sees every previously emitted
// line before following live.
//
// The log is bounded (max lines): a producer that outruns the bound —
// impossible for the service's sweep streams, whose shard count is
// capped far below the default — truncates the buffered history
// instead of growing without bound. A truncated log can no longer
// replay a byte-identical prefix, so followers check Truncated and end
// their stream with an in-band error line naming the job's result URL.
type Log struct {
	mu        sync.Mutex
	max       int
	lines     []string
	truncated bool
	closed    bool
	waiters   []chan struct{}
}

// NewLog returns a log bounded to max lines (min 1).
func NewLog(max int) *Log {
	if max < 1 {
		max = 1
	}
	return &Log{max: max}
}

// Append adds one line and wakes blocked followers. Appending past the
// bound (or to a closed log) drops the history and marks the log
// truncated rather than blocking the producer — the producer is an
// engine worker holding budget tokens.
func (l *Log) Append(line string) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if len(l.lines) >= l.max {
		l.lines = nil
		l.truncated = true
	}
	if !l.truncated {
		l.lines = append(l.lines, line)
	}
	l.broadcastLocked()
	l.mu.Unlock()
}

// Close marks the log complete: followers drain the remaining lines and
// stop. Idempotent.
func (l *Log) Close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.broadcastLocked()
	}
	l.mu.Unlock()
}

// Truncated reports whether the bound was exceeded and the buffered
// history dropped.
func (l *Log) Truncated() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Closed reports whether the log is complete.
func (l *Log) Closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Next returns the lines from offset `from` onward, whether the log is
// closed, and — when nothing new is available yet — a channel that is
// closed on the next append or Close. The follower loop is:
//
//	for from := 0; ; {
//		lines, done, more := log.Next(from)
//		emit(lines); from += len(lines)
//		if done { break }
//		if more != nil { select { case <-more: case <-ctx.Done(): return } }
//	}
func (l *Log) Next(from int) (lines []string, done bool, more <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < len(l.lines) {
		return append([]string(nil), l.lines[from:]...), l.closed, nil
	}
	if l.closed {
		return nil, true, nil
	}
	ch := make(chan struct{})
	l.waiters = append(l.waiters, ch)
	return nil, false, ch
}

// broadcastLocked wakes every blocked follower. Caller holds l.mu.
func (l *Log) broadcastLocked() {
	for _, ch := range l.waiters {
		close(ch)
	}
	l.waiters = nil
}
