// Bbd is the Bristle Blocks compile daemon: the silicon compiler as a
// service. It answers POST /compile with chip statistics and any requested
// representations, serving repeated compiles of the same description from
// a content-addressed cache instead of re-running the three passes, and
// POST /verify with graded scenario verdicts: a chip description plus a
// waveform scenario file in, functional percent-correct per scenario and
// a design score out (see internal/scenario for the .sv vector format).
//
// Usage:
//
//	bbd                                  # serve on :8723
//	bbd -addr :9000 -pool 8              # custom listen address, 8 workers
//	bbd -cache-dir /var/cache/bbd        # persistent compile cache
//	bbd -cache-mb 64 -timeout 30s        # memory budget and per-request deadline
//	bbd -j 4                             # Pass 1 fan-out width per compile
//	bbd -admin-addr :8724                # operator surface on its own port
//	bbd -log-level debug -log-json       # structured log stream as JSON
//	bbd -flight-n 512                    # flight recorder keeps 512 compiles
//	bbd -max-sessions 32 -session-ttl 5m # edit-session table sizing
//	bbd -trace-export traces.jsonl       # OTLP/JSON span export, one line per compile
//	bbd -profile-interval 1m             # continuous CPU+heap profile ring
//	bbd -slo-window 1h -slo-availability 0.999  # error-budget objectives
//	bbd -peers http://a:8723,http://b:8723 -self http://a:8723   # join a farm
//	bbd -peer-timeout 150ms              # per-peer cache fetch budget
//
// Endpoints:
//
//	POST /compile[?reps=cif,text,block,logical,sticks|all][&nopads=1&skipopt=1&skipmin=1&skiproto=1&evenpads=1&skipreps=1][&trace=1|chrome]
//	POST /compile/batch            {"specs":[...]} in, NDJSON stream of per-spec results out (same query options)
//	POST /verify                   grade {"spec","vectors"} JSON: one verdict per scenario
//	POST /session                  open an edit session (warm per-client artifact store)
//	POST /session/{id}/compile     incremental compile (same query options as /compile)
//	DELETE /session/{id}           close a session
//	GET  /healthz
//	GET  /metrics                  Prometheus text format
//	GET  /debug/vars               expvar JSON (histograms carry p50/p95/p99)
//	GET  /debug/compiles           flight recorder: last N compiles, newest first
//	GET  /debug/compiles/{id}      one compile's full span tree (?format=chrome)
//	GET  /debug/slo                error-budget burn-rate report (JSON)
//	GET  /debug/profiles           continuous-profiling ring index (404 unless -profile-interval)
//	GET  /debug/profiles/{id}      one captured pprof profile
//	GET  /debug/pprof/             net/http/pprof profiler
//	GET  /cache/{key}              peer shard protocol: fetch a cached result (farm-internal)
//
// With -peers, the daemons listed form a farm in which every node is a
// front door: each cache key has one owning node on a consistent-hash
// ring, a miss asks the owner for the result, and a clean miss there
// forwards the compile to the owner, which compiles it once however many
// requests for it arrive together and keeps the result. Every node passes
// the same -peers list (order doesn't matter) and names itself with
// -self; a dead, slow, or shedding owner degrades to a local compile,
// never an error (see docs/FARM.md).
//
// The compile endpoints accept a W3C traceparent header: the compile's
// spans join the caller's distributed trace (the trace id echoes back in
// the response's "trace_id" and in the flight record), and -trace-export
// appends each compile's tree as one OTLP/JSON line.
//
// With trace=1 the response carries a "trace" array: one span per pass,
// per element generation, and per cell stretch (a cache hit is a single
// cache.lookup span); trace=chrome returns the same tree as Chrome
// trace_event JSON ready for Perfetto. Every response carries an
// X-Request-Id header that keys into the flight recorder and the log
// stream.
//
// Every cold compile is verified before it is served: the daemon replays
// the microcode program space against both the decoder's logic
// representation and the compiled switch-level simulator and pages (via
// the log stream and the bbd_verify_* metrics) if the two ever disagree.
// Cache hits skip verification — the stored result already passed.
// -verify-disable turns the check off for benchmarking. The skipmin=1
// query option disables the Pass 2 PLA minimizer for one compile (the
// bbd_pla_* metrics expose what the minimizer saves when it is on).
//
// By default the admin endpoints share the serving port; -admin-addr moves
// them to a second listener so the serving port can face untrusted clients
// while the profiler stays on a firewalled one.
//
// SIGINT/SIGTERM drain gracefully: the listener stops, queued and
// in-flight compiles finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/obs/slo"
	"bristleblocks/internal/server"
)

func main() {
	addr := flag.String("addr", ":8723", "listen address")
	adminAddr := flag.String("admin-addr", "", "separate listen address for the operator surface (metrics, flight recorder, pprof); empty = share -addr")
	pool := flag.Int("pool", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "request queue depth (0 = 4x pool)")
	cacheMB := flag.Int64("cache-mb", 256, "in-memory compile cache budget in MiB")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent compile cache (empty = memory only)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request compile deadline")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
	jobs := flag.Int("j", 1, "fan-out width per compile for Pass 1 elements and Pass 2's minimizer (0 = GOMAXPROCS; 1 serves throughput, the worker pool is the concurrency)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit the log stream as JSON lines instead of logfmt-style text")
	flightN := flag.Int("flight-n", 0, "flight recorder size: last N compiles kept with span trees (0 = 128)")
	maxSessions := flag.Int("max-sessions", 0, "concurrently live edit sessions; at capacity the LRU session is retired (0 = 16)")
	sessionTTL := flag.Duration("session-ttl", 0, "idle deadline after which an edit session expires (0 = 15m)")
	sessionCacheMB := flag.Int("session-cache-mb", 0, "per-session artifact store budget in MiB (0 = 64)")
	verifyDisable := flag.Bool("verify-disable", false, "skip the logic-vs-simulation check on cold compiles (benchmarking only)")
	traceExport := flag.String("trace-export", "", "append one OTLP/JSON line per compile trace to this file (empty = off)")
	profileInterval := flag.Duration("profile-interval", 0, "continuous-profiling ring: capture a CPU+heap profile pair this often, served at /debug/profiles (0 = off)")
	profileKeep := flag.Int("profile-keep", 0, "profiles retained per kind in the ring (0 = 16)")
	profileDir := flag.String("profile-dir", "", "directory for the profile ring (empty = a fresh temp dir)")
	sloWindow := flag.Duration("slo-window", 0, "error-budget rolling window behind bbd_slo_* and /debug/slo (0 = 1h)")
	sloAvail := flag.Float64("slo-availability", 0, "availability objective as a fraction of eligible requests (0 = 0.999)")
	sloLatency := flag.Float64("slo-latency", 0, "latency objective: fraction of good requests under -slo-latency-ms (0 = 0.99)")
	sloLatencyMS := flag.Duration("slo-latency-threshold", 0, "latency threshold the objective counts against (0 = 500ms)")
	peers := flag.String("peers", "", "comma-separated base URLs of every farm node including this one (empty = standalone)")
	self := flag.String("self", "", "this node's base URL as it appears in -peers (required with -peers)")
	peerTimeout := flag.Duration("peer-timeout", 0, "budget for one cache fetch from a key's owning peer (0 = 150ms); forwarded compiles are bounded by -timeout")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: bbd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	logger, err := newLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbd:", err)
		os.Exit(2)
	}

	c, err := cache.New(*cacheMB<<20, *cacheDir)
	if err != nil {
		logger.Error("cache init failed", "err", err)
		os.Exit(1)
	}
	var exportW io.Writer
	if *traceExport != "" {
		f, err := os.OpenFile(*traceExport, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Error("trace export open failed", "err", err)
			os.Exit(1)
		}
		defer f.Close()
		exportW = f
	}
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	srv, err := server.New(server.Config{
		Cache:              c,
		Peers:              peerList,
		SelfURL:            *self,
		PeerTimeout:        *peerTimeout,
		Workers:            *pool,
		QueueDepth:         *queue,
		Timeout:            *timeout,
		Parallelism:        *jobs,
		Logger:             logger,
		FlightRecorderSize: *flightN,
		MaxSessions:        *maxSessions,
		SessionTTL:         *sessionTTL,
		SessionCacheMB:     *sessionCacheMB,
		DisableVerify:      *verifyDisable,
		TraceExport:        exportW,
		ProfileInterval:    *profileInterval,
		ProfileDir:         *profileDir,
		ProfileKeep:        *profileKeep,
		SLO: slo.Config{
			Window:             *sloWindow,
			AvailabilityTarget: *sloAvail,
			LatencyTarget:      *sloLatency,
			LatencyThreshold:   *sloLatencyMS,
		},
	})
	if err != nil {
		logger.Error("server init failed", "err", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 2)
	go func() { errc <- hs.ListenAndServe() }()
	var admin *http.Server
	if *adminAddr != "" {
		admin = &http.Server{Addr: *adminAddr, Handler: srv.AdminHandler()}
		go func() { errc <- admin.ListenAndServe() }()
	}
	logger.Info("serving",
		"addr", *addr, "admin_addr", *adminAddr,
		"pool", srv.Workers(), "cache_mb", *cacheMB, "cache_dir", *cacheDir,
		"timeout", *timeout, "log_level", *logLevel,
		"peers", len(peerList))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "budget", *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("http shutdown", "err", err)
	}
	if admin != nil {
		if err := admin.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("admin shutdown", "err", err)
		}
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("drain failed", "err", err)
		os.Exit(1)
	}
	c.Close() // best effort: a record lost here is a later miss, never a wrong answer
	logger.Info("drained cleanly")
}

// newLogger builds the daemon's slog stream on stderr at the requested
// level, as text or JSON lines.
func newLogger(level string, asJSON bool) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q wants debug, info, warn, or error", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}
