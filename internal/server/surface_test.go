package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The metrics surface golden pins what a scraper can see — every /metrics
// family, series and label set in page order, and every /debug/vars key
// path with its JSON type — with the sample values stripped so the file
// only moves when the surface does. Regenerate after an intentional
// surface change with:
//
//	go test ./internal/server -run TestMetricsSurfaceGolden -update
//
// and review the diff like any other API change.
var updateSurface = flag.Bool("update", false, "rewrite internal/server/testdata golden files")

func TestMetricsSurfaceGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := specText(1)
	for i, want := range []int{http.StatusOK, http.StatusOK} {
		if resp, _ := postSpec(t, ts.URL+"/compile", spec); resp.StatusCode != want {
			t.Fatalf("compile %d: status %d, want %d", i, resp.StatusCode, want)
		}
	}
	if resp, _ := postSpec(t, ts.URL+"/compile", "chip\nnonsense"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d, want 400", resp.StatusCode)
	}

	var sb strings.Builder
	sb.WriteString("== /metrics\n")
	for _, line := range strings.Split(strings.TrimSpace(httpGetBody(t, ts.URL+"/metrics")), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		sb.WriteString(line + "\n")
	}
	sb.WriteString("== /debug/vars\n")
	var vars map[string]any
	if err := json.Unmarshal([]byte(httpGetBody(t, ts.URL+"/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	writeKeyPaths(&sb, "", vars)

	path := filepath.Join("testdata", "metrics_surface.golden")
	got := sb.String()
	if *updateSurface {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update to create): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// writeKeyPaths lists a decoded JSON object's key paths depth-first in
// sorted order, dot-joined, each with its JSON type.
func writeKeyPaths(sb *strings.Builder, prefix string, obj map[string]any) {
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		path := prefix + k
		switch v := obj[k].(type) {
		case map[string]any:
			fmt.Fprintf(sb, "%s object\n", path)
			writeKeyPaths(sb, path+".", v)
		case float64:
			fmt.Fprintf(sb, "%s number\n", path)
		case string:
			fmt.Fprintf(sb, "%s string\n", path)
		case bool:
			fmt.Fprintf(sb, "%s bool\n", path)
		case nil:
			fmt.Fprintf(sb, "%s null\n", path)
		default:
			fmt.Fprintf(sb, "%s %T\n", path, v)
		}
	}
}
