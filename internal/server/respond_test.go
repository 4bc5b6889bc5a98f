package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/specgen"
	"bristleblocks/internal/trace"
)

// TestWriteCompileResponseExact pins writeCompileResponse to the bytes
// json.NewEncoder(w).Encode writes for the same reply after fillReps:
// over compiled chips and over hand-made results whose text needs every
// kind of escaping, for every ?reps= subset, with and without a span
// list, Chrome trace events and session counters. Each result is served
// many times, so both the classifying first write and the memoized ones
// are compared.
func TestWriteCompileResponseExact(t *testing.T) {
	var results []*cache.Result
	for seed := int64(1); seed <= 8; seed++ {
		chip, err := core.Compile(specgen.FromSeed(seed, &specgen.Config{ForPads: true}), nil)
		if err != nil {
			continue
		}
		res, err := cache.Render(chip)
		if err != nil {
			t.Fatal(err)
		}
		res.Key = "k"
		results = append(results, res)
	}
	if len(results) == 0 {
		t.Fatal("no generated chip compiled")
	}
	for _, text := range []string{
		"a < b\n", "a > b\n", "a & b\n", "say \"hi\"\n", "back\\slash\n",
		`<a href="x">&amp;</a>`,
		"\x00\x01\t\r\x1f\x7f\n",
		"line\u2028para\u2029\n",
		"φ1 and φ2\n",
		"bad \xff\xfe \xed\xa0\x80 utf-8",
		"ends in a quote\"",
		"\n\n",
	} {
		results = append(results, &cache.Result{
			Key: "<&>", Chip: text, CIF: []byte(text), Sticks: text,
			Text: text, Block: "plain block\n", Logical: text,
		})
	}
	results = append(results, &cache.Result{Chip: "empty"})

	tr := trace.New()
	tr.Lookup(nil, 3*time.Microsecond, true)
	spans := tr.Spans()
	var chrome bytes.Buffer
	if err := trace.WriteChrome(&chrome, spans); err != nil {
		t.Fatal(err)
	}
	incr := &IncrCounters{Hits: 3, Misses: 1, Entries: 4, Bytes: 1 << 20, HitRatio: 0.75}
	tails := []struct {
		name string
		set  func(*CompileResponse)
	}{
		{"none", func(*CompileResponse) {}},
		{"trace=1", func(r *CompileResponse) { r.Trace = spans }},
		{"trace=chrome", func(r *CompileResponse) { r.TraceEvents = json.RawMessage(chrome.Bytes()) }},
		{"incr", func(r *CompileResponse) { r.Incr = incr }},
		{"trace=chrome+incr", func(r *CompileResponse) {
			r.TraceEvents = json.RawMessage(chrome.Bytes())
			r.Incr = incr
		}},
	}

	for i, res := range results {
		for mask := 0; mask < 1<<len(repNames); mask++ {
			reps := make(map[string]bool)
			for j, name := range repNames {
				if mask&(1<<j) != 0 {
					reps[name] = true
				}
			}
			for _, tail := range tails {
				resp := &CompileResponse{
					RequestID: "req-1",
					TraceID:   "<trace>",
					Chip:      res.Chip,
					Key:       res.Key,
					Cached:    mask%2 == 0,
					Stats:     res.Stats,
					TimesUS:   res.TimesUS,
				}
				tail.set(resp)
				rec := httptest.NewRecorder()
				writeCompileResponse(rec, resp, res, reps)

				fillReps(resp, res, reps)
				var want bytes.Buffer
				if err := json.NewEncoder(&want).Encode(resp); err != nil {
					t.Fatal(err)
				}
				if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("result %d, reps %v, %s:\n got %q\nwant %q", i, reps, tail.name, got, want.Bytes())
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("Content-Type = %q", ct)
				}
			}
		}
	}
}
