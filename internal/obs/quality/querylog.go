package quality

import (
	"encoding/json"
	"io"
	"sync"

	"semsim/internal/obs"
	"semsim/internal/obs/flight"
)

// QueryLog serializes request events — flight.Record, the value serve's
// flight ring also keeps — as newline-delimited JSON to a single writer.
// Writes are mutex-serialized (the log sits after the response is
// computed, off the scoring hot path) and one slow or failing write
// never panics a handler — failures are counted and dropped. A nil
// *QueryLog ignores all calls.
type QueryLog struct {
	mu sync.Mutex
	w  io.Writer

	events *obs.Counter
	fails  *obs.Counter
}

// NewQueryLog wraps w as a query log. Returns nil (the disabled log) on
// a nil writer. reg may be nil for an unmetered log.
func NewQueryLog(w io.Writer, reg *obs.Registry) *QueryLog {
	if w == nil {
		return nil
	}
	return &QueryLog{
		w: w,
		events: reg.Counter("semsim_querylog_events_total",
			"Wide events written to the structured query log."),
		fails: reg.Counter("semsim_querylog_write_errors_total",
			"Query log events dropped because the writer failed."),
	}
}

// Log writes one event as it is given. Marshal or write failures are
// counted on semsim_querylog_write_errors_total and otherwise swallowed.
func (l *QueryLog) Log(rec *flight.Record) {
	if l == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		l.fails.Inc()
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, err = l.w.Write(line)
	l.mu.Unlock()
	if err != nil {
		l.fails.Inc()
		return
	}
	l.events.Inc()
}
