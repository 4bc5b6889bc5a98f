package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"bristleblocks"
	"bristleblocks/internal/server"
)

// TestRemoteCompile drives -remote end to end against a live daemon: the
// CIF the daemon returns lands on disk byte-identical to a local compile,
// and the traceparent bristlec injects is the trace id the daemon's
// flight recorder filed the compile under.
func TestRemoteCompile(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	in := filepath.Join("..", "..", "examples", "chips", "adder4.bb")
	cifPath := filepath.Join(t.TempDir(), "chip.cif")
	var buf bytes.Buffer
	if err := runRemote(&buf, ts.Client(), ts.URL, in, cifPath, false); err != nil {
		t.Fatalf("runRemote: %v", err)
	}
	out := buf.String()
	m := regexp.MustCompile(`request (\S+), trace ([0-9a-f]{32})\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("summary line carries no request/trace ids:\n%s", out)
	}
	reqID, traceID := m[1], m[2]

	// The daemon filed the compile under the same trace id.
	fresp, err := http.Get(ts.URL + "/debug/compiles/" + reqID)
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	var rec struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(fresp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.TraceID != traceID {
		t.Errorf("flight record trace_id = %q, bristlec injected %q", rec.TraceID, traceID)
	}

	// The remote CIF matches a local compile of the same spec.
	src, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := bristleblocks.ParseSpec(string(src))
	if err != nil {
		t.Fatal(err)
	}
	chip, err := bristleblocks.Compile(spec, &bristleblocks.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := bristleblocks.WriteCIF(&want, chip); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cifPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("remote CIF differs from a local compile")
	}
}

// TestWatchRecompilesOnEdit drives the -watch loop end to end: the first
// compile is cold, an edit to the spec file triggers a warm recompile
// that reuses unchanged cells, and the CIF on disk afterwards is
// byte-identical to a scratch compile of the edited spec.
func TestWatchRecompilesOnEdit(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "chips", "adder4.bb"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "chip.bb")
	cifPath := filepath.Join(dir, "chip.cif")
	if err := os.WriteFile(specPath, src, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := &bristleblocks.Options{Parallelism: 1}
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- runWatch(&buf, specPath, cifPath, opts, 5*time.Millisecond, 2)
	}()

	// Wait for the first compile (it writes the CIF), then edit the spec.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(cifPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watch loop never wrote the CIF")
		}
		time.Sleep(5 * time.Millisecond)
	}
	edited := strings.Replace(string(src), "value=1", "value=13", 1)
	if edited == string(src) {
		t.Fatal("example spec carries no const to edit")
	}
	if err := os.WriteFile(specPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runWatch: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watch loop never saw the edit")
	}

	// Two summary lines; the second (warm) compile must have reused
	// artifacts from the first.
	out := buf.String()
	lines := regexp.MustCompile(`(\d+)/(\d+) artifact hits`).FindAllStringSubmatch(out, -1)
	if len(lines) != 2 {
		t.Fatalf("want 2 compile summaries, got %d in:\n%s", len(lines), out)
	}
	if cold, _ := strconv.Atoi(lines[0][1]); cold != 0 {
		t.Errorf("cold compile reported %s hits, want 0", lines[0][1])
	}
	if warm, _ := strconv.Atoi(lines[1][1]); warm == 0 {
		t.Errorf("warm compile reported 0 artifact hits in:\n%s", out)
	}

	// The watched CIF must match a scratch compile of the edited spec.
	spec, err := bristleblocks.ParseSpec(edited)
	if err != nil {
		t.Fatal(err)
	}
	chip, err := bristleblocks.Compile(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := bristleblocks.WriteCIF(&want, chip); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cifPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("watched CIF differs from a scratch compile of the edited spec")
	}
	// The loop builds no netlist, yet reports the full compile's count.
	counts := regexp.MustCompile(`: (\d+) transistors`).FindAllStringSubmatch(out, -1)
	if len(counts) != 2 || counts[1][1] != strconv.Itoa(chip.Stats.Transistors) {
		t.Errorf("watch reported transistors %v, a full compile counts %d, in:\n%s",
			counts, chip.Stats.Transistors, out)
	}
}
