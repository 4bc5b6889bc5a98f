package trace

import (
	"encoding/json"
	"strconv"
	"time"

	"bristleblocks/internal/obs/rtm"
)

// The phase record is a compile's one measurement of each pass and of the
// whole compile: wall clock, objects and bytes allocated. A bracket reads
// the clock and the runtime's cumulative allocation counters once at each
// boundary and hands the same readings to the phase's span, so the span,
// the reply's times_us, the flight record's allocs and the daemon's pass
// families cannot disagree. Per-pass allocations tell the zero-alloc work
// *which* pass to arena first, as a whole-process count cannot.
//
// The counters are process-wide, so a delta includes whatever other
// goroutines allocated during the phase: exact when the process compiles
// one chip at a time (the benchmark and CLI case), an upper bound under a
// concurrent daemon — still the right signal for "which pass grew". The
// record lives on core.Chip, not core.Stats: Stats is byte-compared by the
// differential harness and cached content-addressed, and these
// measurements are nondeterministic.

// Phase indexes a Phases record.
type Phase int

// The measured phases. PhaseTotal brackets the whole compile, inter-pass
// glue included, so the passes sum to at most it.
const (
	PhaseCore Phase = iota
	PhaseControl
	PhasePads
	PhaseReps
	PhaseTotal
	NumPhases
)

// Measure is one phase's cost: wall clock, and the objects and bytes
// allocated (cumulative-counter deltas, so frees don't subtract). JSON
// carries the allocations only; a flight record's span tree holds the
// durations, from the same readings.
type Measure struct {
	Dur     time.Duration `json:"-"`
	Objects uint64        `json:"objects"`
	Bytes   uint64        `json:"bytes"`
}

// Phases is one compile's phase record. A phase that did not run (Pass 3
// under SkipPads, the representations under SkipExtraReps) reads zero.
type Phases [NumPhases]Measure

// phasesJSON is the record's JSON form: one object keyed by phase.
type phasesJSON struct {
	Core    Measure `json:"core"`
	Control Measure `json:"control"`
	Pads    Measure `json:"pads"`
	Reps    Measure `json:"reps"`
	Total   Measure `json:"total"`
}

func (p *Phases) MarshalJSON() ([]byte, error) {
	return json.Marshal(phasesJSON{p[PhaseCore], p[PhaseControl], p[PhasePads], p[PhaseReps], p[PhaseTotal]})
}

func (p *Phases) UnmarshalJSON(data []byte) error {
	var j phasesJSON
	err := json.Unmarshal(data, &j)
	*p = Phases{j.Core, j.Control, j.Pads, j.Reps, j.Total}
	return err
}

// Bracket is one open phase; Span is its span (nil when untraced), under
// which the phase's own work records.
type Bracket struct {
	Span           *Active
	m              *Measure
	start          time.Time
	objects, bytes uint64
}

// StartPhase opens a bracket that fills m, with one allocation-counter and
// one clock reading; when traced, the span name (pass, under parent)
// starts at that instant. Untraced, it allocates nothing.
func (t *Trace) StartPhase(parent *Active, name, pass string, m *Measure) Bracket {
	b := Bracket{m: m}
	b.objects, b.bytes = rtm.ReadAllocs()
	b.start = time.Now()
	if t != nil {
		b.Span = t.StartSpan(parent, name, pass, Coordinator)
		b.Span.start = b.start.Sub(t.t0)
	}
	return b
}

// End fills the bracket's Measure from one allocation-counter and one
// clock reading, tags the span with the same delta and ends it at the
// same instant, so its DurUS equals the Measure's duration in µs. The
// tags are formatted between the two readings: outside the allocation
// delta, inside the span's time, as a span's own End would have them.
func (b Bracket) End() {
	objects, bytes := rtm.ReadAllocs()
	b.m.Objects, b.m.Bytes = objects-b.objects, bytes-b.bytes
	if b.Span != nil {
		b.Span.Attr("allocs", strconv.FormatUint(b.m.Objects, 10)).
			Attr("alloc_bytes", strconv.FormatUint(b.m.Bytes, 10))
	}
	now := time.Now()
	b.m.Dur = now.Sub(b.start)
	if b.Span != nil {
		b.Span.endAt(now)
	}
}
