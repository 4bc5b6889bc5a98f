// Command bbdbench is the repository's serving benchmark. It starts the
// bbd daemon as a child process, drives it over loopback with two
// closed-loop clients that replay a corpus generated from --seed, checks
// every answer against an in-process oracle, and prints one JSON result
// as the last line of standard output: the end-to-end metrics, or with
// --trace 1 the per-layer metrics. run.sh builds bbd and this program
// from source and runs it from the repository root; README.md defines
// every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// clients is the closed-loop client count: one per core of the 2-core
	// reference host, matching bbd's default pool of GOMAXPROCS workers.
	clients = 2
	// setupReps is how many times a run sets up; setup_s is the median,
	// and the last daemon serves the timed window.
	setupReps = 5
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "cold_compile, hot_cache or edit_session")
	seed := flag.Int64("seed", 1, "workload seed: the same seed replays the same inputs")
	seconds := flag.Int("seconds", 10, "sizes the corpus so the timed window lasts about this long on the reference host")
	traceRun := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	bbd := flag.String("bbd", "", "the bbd binary to start")
	flag.Parse()
	if *bbd == "" || *seconds < 1 || *traceRun < 0 || *traceRun > 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: bbdbench -bbd <binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, info, err := run(ctx, *bbd, *workload, *seed, *seconds, *traceRun == 1)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbdbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(map[string]any{"context": info})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, bin, workload string, seed int64, seconds int, traced bool) (*result, map[string]any, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, nil, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)

	var (
		c      *corpus
		d      *daemon
		setups []float64
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
			d = nil
		}
		t0 := time.Now()
		if c, err = newCorpus(root, workload, seed, seconds); err != nil {
			return nil, nil, err
		}
		if d, err = startDaemon(bin, filepath.Join(work, fmt.Sprintf("cache-%d", rep))); err != nil {
			return nil, nil, err
		}
		if workload == hotCache {
			if err := c.prime(ctx, newLoadgen(d.base)); err != nil {
				return nil, nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	exp := make([]expectation, len(c.specs))
	w, err := measure(ctx, d, c, exp)
	if err != nil {
		return nil, nil, err
	}
	v := judge(c, w.outs, exp)
	res := &result{Correct: v.wrong == 0, Attempted: len(w.outs), Failed: v.wrong}
	if traced {
		if res.Metrics, err = perLayer(ctx, c, exp, w, work); err != nil {
			return nil, nil, err
		}
	} else {
		res.Metrics = endToEnd(w, v, setups)
	}
	info := map[string]any{
		"workload":        workload,
		"seed":            seed,
		"corpus_digest":   c.digest,
		"requests":        len(w.outs),
		"distinct_specs":  len(c.requested()),
		"window_s":        w.wall.Seconds(),
		"ok":              v.ok,
		"rejected":        v.rejected,
		"wrong":           v.wrong,
		"failed_frac":     div(float64(len(w.outs)-v.ok), float64(len(w.outs))),
		"rejected_seeds":  v.rejectedSeeds,
		"setup_s_samples": setups,
		"clients":         clients,
		"bbd_flags":       strings.Join(d.flags, " "),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"cpu":             cpuModel(),
	}
	fmt.Fprintf(os.Stderr, "%s seed %d corpus %s: %d requests in %.2fs: %d ok, %d rejected by the compiler, %d wrong (oracle %.1fs)\n",
		workload, seed, c.digest, len(w.outs), w.wall.Seconds(), v.ok, v.rejected, v.wrong, w.oracle.Seconds())
	for _, n := range v.notes {
		fmt.Fprintln(os.Stderr, "  wrong:", n)
	}
	return res, info, nil
}

func endToEnd(w *window, v verdict, setups []float64) map[string]metric {
	lat := make([]float64, len(w.outs))
	for i, o := range w.outs {
		lat[i] = ms(o.lat)
	}
	return map[string]metric{
		"req_per_s":      {float64(v.ok) / w.wall.Seconds(), "1/s"},
		"latency_p50_ms": {quantile(lat, 0.50), "ms"},
		"latency_p99_ms": {quantile(lat, 0.99), "ms"},
		"cpu_ms_per_req": {ms(w.daemonCPU) / float64(len(w.outs)), "ms"},
		"peak_rss_mb":    {w.peakRSSKB / 1024, "MiB"},
		"setup_s":        {quantile(setups, 0.5), "s"},
	}
}

func perLayer(ctx context.Context, c *corpus, exp []expectation, w *window, work string) (map[string]metric, error) {
	l, err := replayLayers(ctx, c, exp, work)
	if err != nil {
		return nil, err
	}
	var queueP99 float64
	if c.workload == coldCompile {
		waits, err := queueWait(ctx, c, queueWaitRequests, filepath.Join(work, "queue"))
		if err != nil {
			return nil, err
		}
		ws := make([]float64, len(waits))
		for i, d := range waits {
			ws[i] = ms(d)
		}
		queueP99 = quantile(ws, 0.99)
	}
	var fails int
	var failTime time.Duration
	compiledKeys := 0
	for _, i := range c.requested() {
		if exp[i].reject != "" {
			fails++
			failTime += exp[i].pass3Fail
		} else if c.workload == coldCompile {
			compiledKeys++
		}
	}
	if c.workload == hotCache {
		compiledKeys = c.primed
	}
	var httpOK []float64
	for _, o := range w.outs {
		if o.status == 200 {
			httpOK = append(httpOK, us(o.lat))
		}
	}
	plain := durs(l.plain)
	tracedWalls := durs(l.traced)
	delta := func(name string) float64 { return w.after[name] - w.before[name] }
	hits, misses := delta("bbd_cache_hits_total"), delta("bbd_cache_misses_total")
	n, k := float64(l.requests), float64(l.compiles)
	perCompile := func(d time.Duration) float64 { return div(us(d), k) }
	return map[string]metric{
		"server.queue_wait_ms_p99":         {queueP99, "ms"},
		"server.encode_us":                 {div(us(l.encode), n), "us"},
		"server.resp_kb":                   {div(float64(l.respBytes)/1024, n), "KiB"},
		"server.unattributed_us":           {mean(httpOK) - mean(plain), "us"},
		"desc.parse_us":                    {div(us(l.parse), n), "us"},
		"cache.key_us":                     {div(us(l.key), n), "us"},
		"cache.mem_hit_us":                 {div(us(l.hitLookup), float64(l.hits)), "us"},
		"cache.render_us":                  {perCompile(l.render), "us"},
		"cache.disk_put_us":                {perCompile(l.put), "us"},
		"cache.hit_ratio":                  {div(hits, hits+misses), "ratio"},
		"cache.compiles_per_key":           {div(w.after["bbd_compiles_total"], float64(compiledKeys)), "ratio"},
		"core.pass1_us":                    {perCompile(l.pass[0]), "us"},
		"core.pass2_us":                    {perCompile(l.pass[1]), "us"},
		"core.pass3_us":                    {perCompile(l.pass[2]), "us"},
		"core.reps_us":                     {perCompile(l.pass[3]), "us"},
		"core.glue_us":                     {perCompile(l.glue), "us"},
		"core.pass1_allocs":                {div(l.allocs[0], k), "count"},
		"core.pass2_allocs":                {div(l.allocs[1], k), "count"},
		"core.pass3_allocs":                {div(l.allocs[2], k), "count"},
		"core.reps_allocs":                 {div(l.allocs[3], k), "count"},
		"core.alloc_kb_per_compile":        {div(l.allocBytes/1024, k), "KiB"},
		"core.pass3_fail_count":            {float64(fails), "count"},
		"core.pass3_fail_ms":               {ms(failTime), "ms"},
		"route.cells_expanded_per_compile": {div(float64(l.cellsExpanded), k), "count"},
		"route.conflict_frac":              {div(float64(l.routeConflicts), float64(l.routeNets)), "ratio"},
		"route.retries_per_compile":        {div(float64(l.routeRetries), k), "count"},
		"incr.gen_hit_ratio":               {l.gen.ratio(), "ratio"},
		"incr.stretch_hit_ratio":           {l.stretch.ratio(), "ratio"},
		"incr.p2_hit_ratio":                {l.p2.ratio(), "ratio"},
		"incr.invalidations_per_edit":      {div(float64(l.invalidations), float64(l.edits)), "count"},
		"verify.us":                        {perCompile(l.verify), "us"},
		"runtime.gc_cycles_per_1k_req":     {div(1000*delta("bbd_runtime_gc_cycles_total"), float64(len(w.outs))), "count"},
		"runtime.alloc_mb_per_s":           {delta("bbd_runtime_alloc_bytes_total") / 1e6 / w.wall.Seconds(), "MB/s"},
		"client.cpu_frac":                  {div(float64(w.clientCPU), float64(w.clientCPU+w.daemonCPU)), "ratio"},
		"trace.attributed_frac":            {div(float64(l.attributed()), float64(sum(l.traced))), "ratio"},
		"trace.overhead_pct":               {100 * (div(quantile(tracedWalls, 0.5), quantile(plain, 0.5)) - 1), "%"},
	}, nil
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return div(t, float64(len(xs)))
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// durs converts durations to microseconds.
func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuModel names the host CPU for the context line.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
