// Package flightrec is the daemon's flight recorder: a bounded ring buffer
// holding the last N compile records — spec hash, options, full span tree,
// outcome, error — so a failed or slow request can be debugged after the
// fact without having asked for a trace up front. The paper's designer
// watched their one compile run; a service fielding thousands learns about
// the interesting ones from a dashboard hours later, when the only
// evidence left is what the recorder kept.
//
// The buffer is fixed-size and overwrites oldest-first, so memory is
// bounded no matter the traffic, and a record is immutable once added.
package flightrec

import (
	"sync"
	"time"

	"bristleblocks/internal/trace"
)

// Outcome classifies how a recorded compile ended.
const (
	OutcomeOK       = "ok"
	OutcomeError    = "error"
	OutcomeTimeout  = "timeout"
	OutcomeCanceled = "canceled"
)

// Record is one compile's post-hoc evidence.
type Record struct {
	// ID is the request ID the daemon minted for the compile (unique
	// within the recorder's window).
	ID string `json:"id"`
	// Seq is the recorder's monotonic sequence number (total compiles
	// recorded, including ones already overwritten).
	Seq uint64 `json:"seq"`
	// Start is when the compile began.
	Start time.Time `json:"start"`
	// Chip is the spec's chip name ("" when it never parsed).
	Chip string `json:"chip,omitempty"`
	// SpecHash is the content-addressed cache key: sha256 over canonical
	// spec, options, and compiler version. Two records with one hash were
	// the same compile.
	SpecHash string `json:"spec_hash,omitempty"`
	// Options renders the compile's option switches.
	Options string `json:"options,omitempty"`
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// Error is the compile error for non-ok outcomes.
	Error string `json:"error,omitempty"`
	// DurUS is the compile's wall clock in microseconds.
	DurUS int64 `json:"dur_us"`
	// TraceID is the compile's distributed trace id (32 hex digits) —
	// inherited from the client's traceparent header or minted by the
	// daemon — so one flight record joins up with external tracing.
	TraceID string `json:"trace_id,omitempty"`
	// Allocs is the compile's phase record, serialized as its per-pass
	// allocation attribution (nil when the compile never produced a chip).
	Allocs *trace.Phases `json:"allocs,omitempty"`
	// Spans is the compile's full span tree.
	Spans []trace.Span `json:"spans,omitempty"`
}

// Recorder is the ring buffer. Safe for concurrent use; create with New.
type Recorder struct {
	mu   sync.Mutex
	buf  []Record
	next uint64 // total records ever added; buf[(next-1) % len] is newest
}

// New sizes the recorder to keep the last n records (n <= 0 selects 128).
func New(n int) *Recorder {
	if n <= 0 {
		n = 128
	}
	return &Recorder{buf: make([]Record, n)}
}

// Add stamps the record's sequence number and stores it, overwriting the
// oldest once the buffer is full.
func (r *Recorder) Add(rec Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	rec.Seq = r.next
	r.buf[(r.next-1)%uint64(len(r.buf))] = rec
}

// Records returns the retained records, newest first.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if n > uint64(len(r.buf)) {
		n = uint64(len(r.buf))
	}
	out := make([]Record, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.buf[(r.next-1-i)%uint64(len(r.buf))])
	}
	return out
}

// Get finds a retained record by request ID.
func (r *Recorder) Get(id string) (Record, bool) {
	for _, rec := range r.Records() {
		if rec.ID == id {
			return rec, true
		}
	}
	return Record{}, false
}

// Len reports retained records; Total reports all ever recorded.
func (r *Recorder) Len() int { return len(r.Records()) }

// Cap reports the ring's capacity.
func (r *Recorder) Cap() int { return len(r.buf) }

// Total reports the monotonic record count, including overwritten ones.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}
