package trace

import (
	"encoding/json"
	"strconv"
	"testing"
	"time"
)

// TestPhaseBracketUntracedAllocatesNothing: on an untraced compile a
// bracket is counter and clock reads only, so the glue between passes
// stays allocation-free and the record is still filled.
func TestPhaseBracketUntracedAllocatesNothing(t *testing.T) {
	var tr *Trace
	var rec Phases
	allocs := testing.AllocsPerRun(100, func() {
		b := tr.StartPhase(nil, "pass.core", PassCore, &rec[PhaseCore])
		b.End()
	})
	if allocs != 0 {
		t.Fatalf("untraced bracket allocated %.1f objects per run", allocs)
	}
	rec[PhaseCore] = Measure{}
	b := tr.StartPhase(nil, "pass.core", PassCore, &rec[PhaseCore])
	if b.Span != nil {
		t.Fatal("untraced bracket has a span")
	}
	time.Sleep(time.Millisecond)
	b.End()
	if rec[PhaseCore].Dur < time.Millisecond {
		t.Fatalf("untraced bracket recorded %v, want >= 1ms", rec[PhaseCore].Dur)
	}
}

var sink []byte

// TestPhaseBracketSpanAgrees: a traced bracket's span carries the record
// entry's own readings — dur_us, allocs and alloc_bytes — under its name,
// pass and parent.
func TestPhaseBracketSpanAgrees(t *testing.T) {
	tr := New()
	var rec Phases
	total := tr.StartPhase(nil, "compile", PassCompile, &rec[PhaseTotal])
	b := tr.StartPhase(total.Span, "pass.pads", PassPads, &rec[PhasePads])
	// A large object: the runtime counts it when allocated, not at a
	// later cache flush as it does small ones.
	sink = make([]byte, 1<<20)
	time.Sleep(time.Millisecond)
	b.End()
	total.End()

	spans := map[string]Span{}
	for _, s := range tr.Spans() {
		spans[s.Name] = s
	}
	for _, c := range []struct {
		p          Phase
		name, pass string
		parent     int64
	}{
		{PhasePads, "pass.pads", PassPads, spans["compile"].ID},
		{PhaseTotal, "compile", PassCompile, 0},
	} {
		s, m := spans[c.name], rec[c.p]
		if s.Pass != c.pass || s.Parent != c.parent {
			t.Errorf("%s: span %+v, want pass %s under %d", c.name, s, c.pass, c.parent)
		}
		if s.DurUS != m.Dur.Microseconds() || s.DurUS < 1000 {
			t.Errorf("%s: span dur_us %d, record %v", c.name, s.DurUS, m.Dur)
		}
		if s.Attrs["allocs"] != strconv.FormatUint(m.Objects, 10) || s.Attrs["alloc_bytes"] != strconv.FormatUint(m.Bytes, 10) {
			t.Errorf("%s: span attrs %v, record %+v", c.name, s.Attrs, m)
		}
		if m.Objects == 0 || m.Bytes < 1<<20 {
			t.Errorf("%s: recorded %+v, want the 1 MiB allocation", c.name, m)
		}
	}
}

// TestPhasesJSON pins the flight record's allocs shape: allocations keyed
// by phase in phase order, durations left to the span tree.
func TestPhasesJSON(t *testing.T) {
	rec := Phases{
		PhaseCore:  {Dur: time.Second, Objects: 1, Bytes: 2},
		PhaseReps:  {Objects: 7, Bytes: 8},
		PhaseTotal: {Dur: 2 * time.Second, Objects: 9, Bytes: 10},
	}
	data, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"core":{"objects":1,"bytes":2},"control":{"objects":0,"bytes":0},"pads":{"objects":0,"bytes":0},"reps":{"objects":7,"bytes":8},"total":{"objects":9,"bytes":10}}`
	if string(data) != want {
		t.Fatalf("got  %s\nwant %s", data, want)
	}
	var back Phases
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		rec[i].Dur = 0
	}
	if back != rec {
		t.Fatalf("round trip: got %+v, want %+v", back, rec)
	}
}
