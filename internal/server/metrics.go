package server

import (
	"encoding/json"
	"expvar"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/core"
	"bristleblocks/internal/geom"
	"bristleblocks/internal/obs/prom"
	"bristleblocks/internal/obs/rtm"
	"bristleblocks/internal/scenario"
	"bristleblocks/internal/trace"
)

// metrics is one server's metric set. Request-path sites add to its
// fields directly — an atomic add, no lookup, lock or closure — and only
// scrapes read the ordered sample table, which renders both GET /metrics
// (writeProm) and GET /debug/vars (writeVars). Adding a metric is one
// field and one table row.
type metrics struct {
	requests, inFlight, compiles, cacheServed, sessionCompiles expvar.Int
	rejected, timeouts, badSpecs, compileErrors                expvar.Int
	// Batch endpoint, shared compiles, and the farm protocol: shard
	// lookups served, compiles forwarded to their owner, and forwards
	// that fell back to a local compile.
	batchRequests, batchSpecs, batchErrors     expvar.Int
	compilesJoined                             expvar.Int
	shardServed, ownerForwards, ownerFallbacks expvar.Int
	// Compiler-core build counters accumulated over cold compiles, plus
	// the most recent cold compile's gauges.
	coreCells, coreStretches, coreStretchDist, coreBusBreaks expvar.Int
	plaTermsLast, plaTermsBeforeLast, plaTermsAfterLast      expvar.Int
	plaTermsMerged                                           expvar.Int
	pitchLast, plaAreaSaved                                  expvar.Float
	// Per-compile verifier and scenario grading (/verify).
	verifyViolations                                     expvar.Int
	scenarioRequests, scenarioBadVectors, scenarioGraded expvar.Int
	scenarioVectors, scenarioFailed, scenarioGradeLast   expvar.Int
	// Pass 3 routing work, accumulated over cold compiles.
	routeNets, routeCells expvar.Int
	// The per-phase families, indexed by trace.Phase and filled from each
	// counted compile's phase record: latency histograms for the three
	// passes, allocation counters for every phase (PhaseTotal is the
	// attribution denominator).
	passHist                 [trace.PhasePads + 1]*histogram
	phaseAllocs, phaseAllocB [trace.NumPhases]expvar.Int
	// routeFrontierPeak is a high-water gauge; its max update is a CAS
	// loop because parallel compile workers report concurrently.
	routeFrontierPeak atomic.Int64

	// rt throttles runtime/metrics reads behind the scrape path: however
	// hot the scraper runs, the runtime is read at most once per second.
	rt *rtm.Sampler

	genElement, request, verifyHist, scenarioHist *histogram
}

// sample is one exported row of the metric table. name is the Prometheus
// family (empty: on /debug/vars only); consecutive rows sharing a name and
// carrying a k=v label form one labeled family, whose kind and help come
// from its first row. key is the legacy /debug/vars key (empty: on
// /metrics only); a dot nests one level, as in cache.hits. A histogram row
// carries hist or rt in place of val.
type sample struct {
	name, kind, help, label, key string
	val                          float64
	hist                         *histogram
	rt                           rtm.Hist
}

func (r sample) with(label string) sample { r.label = label; return r }

func newMetrics() *metrics {
	m := &metrics{
		rt:         rtm.NewSampler(time.Second),
		genElement: newHistogram(), request: newHistogram(),
		verifyHist: newHistogram(), scenarioHist: newHistogram(),
	}
	for p := range m.passHist {
		m.passHist[p] = newHistogram()
	}
	return m
}

// table reads one snapshot of the metric set and of the server state it
// exports (cache, peer tier, edit sessions, runtime, SLO) as
// the ordered rows both scrape surfaces render. Only scrapes call it.
func (m *metrics) table(s *Server) []sample {
	cc, rt, so := s.cache.Counters(), m.rt.Snapshot(), s.slo.Snapshot()
	var pc cache.PeerCounters
	if pt := s.cache.Peers(); pt != nil {
		pc = pt.Counters()
	}
	ic, created, expired, active := s.sessions.totals()
	incrRatio := 0.0
	if n := ic.Hits + ic.Misses; n > 0 {
		incrRatio = float64(ic.Hits) / float64(n)
	}
	c := func(name, key, help string, v float64) sample {
		return sample{name: name, kind: "counter", help: help, key: key, val: v}
	}
	g := func(name, key, help string, v float64) sample {
		return sample{name: name, kind: "gauge", help: help, key: key, val: v}
	}
	h := func(name, key, help string, hist *histogram) sample {
		return sample{name: name, kind: "histogram", help: help, key: key, hist: hist}
	}
	return []sample{
		c("bbd_requests_total", "requests", "Compile requests received (all terminal outcomes).", float64(m.requests.Value())),
		c("bbd_compiles_total", "compiles", "Cold compiles that ran the three passes.", float64(m.compiles.Value())),
		c("bbd_compiles_joined_total", "compiles_joined", "Requests answered by another request's concurrent compile of the same key.", float64(m.compilesJoined.Value())),
		c("bbd_cache_served_total", "cache_served", "Requests answered from the compile cache.", float64(m.cacheServed.Value())),
		c("bbd_rejected_total", "rejected_queue_full", "Requests shed with 503 because the queue was full or draining.", float64(m.rejected.Value())),
		c("bbd_timeouts_total", "timeouts", "Requests that exceeded the compile deadline.", float64(m.timeouts.Value())),
		c("bbd_bad_specs_total", "bad_specs", "Requests whose chip description failed to parse.", float64(m.badSpecs.Value())),
		c("bbd_compile_errors_total", "compile_errors", "Compiles that failed inside the three passes.", float64(m.compileErrors.Value())),

		g("bbd_in_flight", "in_flight", "Compiles currently occupying a worker.", float64(m.inFlight.Value())),
		g("bbd_queue_depth", "queue_depth", "Requests waiting for a worker.", float64(len(s.jobs))),
		g("bbd_queue_capacity", "queue_capacity", "Bound on requests waiting for a worker.", float64(cap(s.jobs))),
		g("bbd_workers", "workers", "Worker pool size.", float64(s.cfg.Workers)),

		c("bbd_cache_hits_total", "cache.hits", "Compile cache hits (memory, disk, or peer).", float64(cc.Hits)),
		c("bbd_cache_misses_total", "cache.misses", "Compile cache misses.", float64(cc.Misses)),
		c("bbd_cache_evictions_total", "cache.evictions", "Results evicted from the in-memory cache layer.", float64(cc.Evictions)),
		c("bbd_cache_disk_hits_total", "cache.disk_hits", "Lookups answered by the disk layer.", float64(cc.DiskHits)),
		c("bbd_cache_peer_hits_total", "cache.peer_hits", "Lookups answered by another node's cache shard.", float64(cc.PeerHits)),
		g("bbd_cache_entries", "cache.entries", "Results resident in the in-memory cache layer.", float64(cc.Entries)),
		g("bbd_cache_bytes", "cache.bytes", "Bytes charged against the in-memory cache budget.", float64(cc.Bytes)),
		g("bbd_cache_hit_ratio", "cache.hit_ratio", "hits/(hits+misses) since start.", s.cache.HitRatio()),

		// Farm peer tier: always present, zero outside a farm, so
		// dashboards and the smoke checks never see a missing series.
		g("bbd_peer_nodes", "peer.nodes", "Cache shard ring size, self included (0 = single-node).", float64(pc.Nodes)),
		c("bbd_peer_fetches_total", "peer.fetches", "Cache lookups sent to a key's owning peer.", float64(pc.Fetches)),
		c("bbd_peer_hits_total", "peer.hits", "Peer fetches answered with a result.", float64(pc.Hits)),
		c("bbd_peer_misses_total", "peer.misses", "Peer fetches answered with a clean 404.", float64(pc.Misses)),
		c("bbd_peer_errors_total", "peer.errors", "Peer fetches that failed (unreachable, bad status, corrupt body).", float64(pc.Errors)),
		c("bbd_peer_timeouts_total", "peer.timeouts", "Peer fetches that exceeded the per-peer timeout.", float64(pc.Timeouts)),
		c("bbd_peer_shard_served_total", "shard_served", "Peer lookups this node answered from its local layers.", float64(m.shardServed.Value())),
		c("bbd_owner_forwards_total", "owner_forwards", "Cold compiles forwarded to their key's owning node and answered there.", float64(m.ownerForwards.Value())),
		c("bbd_owner_fallbacks_total", "owner_fallbacks", "Cold compiles of a key another node owns, run locally because the owner's lookup or forward failed.", float64(m.ownerFallbacks.Value())),

		c("bbd_batch_requests_total", "batch_requests", "POST /compile/batch requests received.", float64(m.batchRequests.Value())),
		c("bbd_batch_specs_total", "batch_specs", "Specs received across batch requests.", float64(m.batchSpecs.Value())),
		c("bbd_batch_errors_total", "batch_errors", "Batch items that streamed an error line.", float64(m.batchErrors.Value())),

		// Incremental artifact stores: every session's store plus retired
		// sessions' totals, so the counters are monotonic across churn.
		c("bbd_incr_session_compiles_total", "session_compiles", "Compiles answered through a session's warm artifact store.", float64(m.sessionCompiles.Value())),
		c("bbd_incr_hits_total", "incr.hits", "Artifact-store hits across all sessions (live and retired).", float64(ic.Hits)),
		c("bbd_incr_misses_total", "incr.misses", "Artifact-store misses across all sessions (live and retired).", float64(ic.Misses)),
		c("bbd_incr_evictions_total", "incr.evictions", "Artifacts dropped by session LRU byte budgets.", float64(ic.Evictions)),
		c("bbd_incr_invalidations_total", "incr.invalidations", "Artifacts displaced by spec edits (new variant of the same slot).", float64(ic.Invalidations)),
		c("bbd_incr_sessions_created_total", "incr.sessions_created", "Edit sessions ever opened.", float64(created)),
		c("bbd_incr_sessions_expired_total", "incr.sessions_expired", "Edit sessions retired by TTL, LRU displacement, or DELETE.", float64(expired)),
		g("bbd_incr_sessions_active", "incr.sessions_active", "Edit sessions currently live.", float64(active)),
		g("bbd_incr_entries", "incr.entries", "Artifacts resident across live session stores.", float64(ic.Entries)),
		g("bbd_incr_bytes", "incr.bytes", "Bytes charged across live session store budgets.", float64(ic.Bytes)),
		g("bbd_incr_hit_ratio", "", "Artifact-store hits/(hits+misses) across all sessions.", incrRatio),

		c("bbd_core_cells_generated_total", "core_cells_generated", "Distinct cell designs generated by Pass 1 across cold compiles.", float64(m.coreCells.Value())),
		c("bbd_core_stretches_total", "core_stretches_applied", "Cells whose geometry the pitch fit moved, across cold compiles.", float64(m.coreStretches.Value())),
		c("bbd_core_stretch_distance_lambda_total", "core_stretch_distance_lambda", "Total lambda of stretch inserted across cold compiles.", float64(m.coreStretchDist.Value())),
		c("bbd_core_bus_breaks_total", "core_bus_breaks", "Bus isolation columns inserted across cold compiles.", float64(m.coreBusBreaks.Value())),
		g("bbd_core_pla_terms", "core_pla_terms_last", "PLA terms of the most recent cold compile.", float64(m.plaTermsLast.Value())),
		g("bbd_core_pitch_lambda", "core_pitch_lambda_last", "Row pitch (lambda) of the most recent cold compile.", m.pitchLast.Value()),

		g("bbd_pla_terms_before", "pla_terms_before_last", "Decoder PLA terms before optimization, most recent cold compile.", float64(m.plaTermsBeforeLast.Value())),
		g("bbd_pla_terms_after", "pla_terms_after_last", "Decoder PLA terms after optimization, most recent cold compile.", float64(m.plaTermsAfterLast.Value())),
		c("bbd_pla_terms_merged_total", "pla_terms_merged", "PLA terms eliminated by decoder optimization across cold compiles.", float64(m.plaTermsMerged.Value())),
		c("bbd_pla_area_saved_lambda2_total", "pla_area_saved_lambda2", "PLA area (lambda^2) saved by decoder optimization across cold compiles.", m.plaAreaSaved.Value()),

		c("bbd_verify_runs_total", "verify_runs", "Logic-vs-simulation verifier runs (one per cold compile unless disabled).", float64(m.verifyHist.total.Load())),
		c("bbd_verify_violations_total", "verify_violations", "Invariant violations the per-compile verifier surfaced.", float64(m.verifyViolations.Value())),

		c("bbd_scenario_requests_total", "scenario_requests", "POST /verify requests received (all terminal outcomes).", float64(m.scenarioRequests.Value())),
		c("bbd_scenario_bad_vectors_total", "scenario_bad_vectors", "Verify requests rejected for a malformed body or vector file.", float64(m.scenarioBadVectors.Value())),
		c("bbd_scenario_graded_total", "scenario_graded", "Scenarios graded across verify requests.", float64(m.scenarioGraded.Value())),
		c("bbd_scenario_vectors_total", "scenario_vectors", "Vectors graded across verify requests.", float64(m.scenarioVectors.Value())),
		c("bbd_scenario_failed_vectors_total", "scenario_failed_vectors", "Vectors that failed their expectations across verify requests.", float64(m.scenarioFailed.Value())),
		g("bbd_scenario_grade_percent_last", "scenario_grade_percent_last", "Worst scenario grade of the most recent verify request.", float64(m.scenarioGradeLast.Value())),

		c("bbd_route_nets_total", "route_nets", "Routing units Pass 3 routed across cold compiles (all rip-up attempts).", float64(m.routeNets.Value())),
		c("bbd_route_cells_expanded_total", "route_cells_expanded", "Grid cells Pass 3's searches expanded across cold compiles.", float64(m.routeCells.Value())),
		g("bbd_route_frontier_peak", "route_frontier_peak", "Widest search frontier any cold compile's router reached.", float64(m.routeFrontierPeak.Load())),

		// Per-pass wall-clock: seconds on /metrics, microseconds under the
		// legacy /debug/vars keys.
		c("bbd_pass_seconds_total", "", "Cumulative wall-clock spent per compiler pass.", float64(m.passHist[trace.PhaseControl].sumUS.Load())/1e6).with("pass=control"),
		c("bbd_pass_seconds_total", "", "", float64(m.passHist[trace.PhaseCore].sumUS.Load())/1e6).with("pass=core"),
		c("bbd_pass_seconds_total", "", "", float64(m.passHist[trace.PhasePads].sumUS.Load())/1e6).with("pass=pads"),
		c("", "pass_us_core", "", float64(m.passHist[trace.PhaseCore].sumUS.Load())),
		c("", "pass_us_control", "", float64(m.passHist[trace.PhaseControl].sumUS.Load())),
		c("", "pass_us_pads", "", float64(m.passHist[trace.PhasePads].sumUS.Load())),

		c("bbd_pass_allocs_total", "pass_allocs_control", "Objects allocated per compiler pass across cold compiles.", float64(m.phaseAllocs[trace.PhaseControl].Value())).with("pass=control"),
		c("bbd_pass_allocs_total", "pass_allocs_core", "", float64(m.phaseAllocs[trace.PhaseCore].Value())).with("pass=core"),
		c("bbd_pass_allocs_total", "pass_allocs_pads", "", float64(m.phaseAllocs[trace.PhasePads].Value())).with("pass=pads"),
		c("bbd_pass_allocs_total", "pass_allocs_reps", "", float64(m.phaseAllocs[trace.PhaseReps].Value())).with("pass=reps"),
		c("bbd_pass_alloc_bytes_total", "pass_alloc_bytes_control", "Bytes allocated per compiler pass across cold compiles.", float64(m.phaseAllocB[trace.PhaseControl].Value())).with("pass=control"),
		c("bbd_pass_alloc_bytes_total", "pass_alloc_bytes_core", "", float64(m.phaseAllocB[trace.PhaseCore].Value())).with("pass=core"),
		c("bbd_pass_alloc_bytes_total", "pass_alloc_bytes_pads", "", float64(m.phaseAllocB[trace.PhasePads].Value())).with("pass=pads"),
		c("bbd_pass_alloc_bytes_total", "pass_alloc_bytes_reps", "", float64(m.phaseAllocB[trace.PhaseReps].Value())).with("pass=reps"),
		c("bbd_compile_allocs_total", "compile_allocs_total", "Objects allocated across whole cold compiles (attribution denominator).", float64(m.phaseAllocs[trace.PhaseTotal].Value())),
		c("bbd_compile_alloc_bytes_total", "compile_alloc_bytes_total", "Bytes allocated across whole cold compiles (attribution denominator).", float64(m.phaseAllocB[trace.PhaseTotal].Value())),

		g("bbd_runtime_heap_bytes", "", "Bytes occupied by live and unswept heap objects.", float64(rt.HeapBytes)),
		g("bbd_runtime_total_bytes", "", "All memory mapped by the Go runtime.", float64(rt.TotalBytes)),
		g("bbd_runtime_heap_objects", "", "Live and unswept heap object count.", float64(rt.HeapObjects)),
		g("bbd_runtime_heap_goal_bytes", "", "GC pacer's current heap-size goal.", float64(rt.HeapGoal)),
		g("bbd_runtime_goroutines", "", "Live goroutine count.", float64(rt.Goroutines)),
		c("bbd_runtime_gc_cycles_total", "", "Completed GC cycles since process start.", float64(rt.GCCycles)),
		c("bbd_runtime_alloc_objects_total", "", "Objects allocated since process start (process-wide).", float64(rt.AllocObjects)),
		c("bbd_runtime_alloc_bytes_total", "", "Bytes allocated since process start (process-wide).", float64(rt.AllocBytes)),
		{name: "bbd_runtime_gc_pause_seconds", kind: "histogram", help: "Stop-the-world GC pause durations.", rt: rt.GCPause},
		{name: "bbd_runtime_sched_latency_seconds", kind: "histogram", help: "Time goroutines spend runnable before running.", rt: rt.SchedLatency},

		// SLO error budget over compile-path outcomes, two burn-rate horizons.
		g("bbd_slo_availability_target", "", "Configured availability objective (fraction of eligible requests).", so.AvailabilityTarget),
		g("bbd_slo_latency_target", "", "Configured latency objective (fraction of good requests under threshold).", so.LatencyTarget),
		g("bbd_slo_latency_threshold_ms", "", "Latency threshold the objective counts against.", float64(so.LatencyThresholdMS)),
		g("bbd_slo_availability", "", "Observed availability over the window (1.0 when idle).", so.Full.Availability).with("window=full"),
		g("bbd_slo_availability", "", "", so.Short.Availability).with("window=short"),
		g("bbd_slo_availability_burn_rate", "", "Error-budget burn rate for availability (1.0 = burning exactly the budget).", so.Full.AvailabilityBurnRate).with("window=full"),
		g("bbd_slo_availability_burn_rate", "", "", so.Short.AvailabilityBurnRate).with("window=short"),
		g("bbd_slo_latency_compliance", "", "Fraction of good requests under the latency threshold over the window.", so.Full.LatencyCompliance).with("window=full"),
		g("bbd_slo_latency_compliance", "", "", so.Short.LatencyCompliance).with("window=short"),
		g("bbd_slo_latency_burn_rate", "", "Error-budget burn rate for latency.", so.Full.LatencyBurnRate).with("window=full"),
		g("bbd_slo_latency_burn_rate", "", "", so.Short.LatencyBurnRate).with("window=short"),
		g("bbd_slo_eligible_requests", "", "Requests counted against the objectives over the window (client errors excluded).", float64(so.Full.Eligible)).with("window=full"),
		g("bbd_slo_eligible_requests", "", "", float64(so.Short.Eligible)).with("window=short"),
		g("bbd_slo_window_seconds", "", "Window length per horizon.", float64(so.Full.WindowSeconds)).with("window=full"),
		g("bbd_slo_window_seconds", "", "", float64(so.Short.WindowSeconds)).with("window=short"),

		c("bbd_flight_recorded_total", "flight_recorded", "Compiles recorded by the flight recorder (including overwritten).", float64(s.flight.Total())),

		h("bbd_pass_core_latency_ms", "latency_ms_pass_core", "Pass 1 (core layout) latency per cold compile.", m.passHist[trace.PhaseCore]),
		h("bbd_pass_control_latency_ms", "latency_ms_pass_control", "Pass 2 (control design) latency per cold compile.", m.passHist[trace.PhaseControl]),
		h("bbd_pass_pads_latency_ms", "latency_ms_pass_pads", "Pass 3 (pad layout) latency per cold compile.", m.passHist[trace.PhasePads]),
		h("bbd_gen_element_latency_ms", "latency_ms_gen_element", "Per-element generation latency inside Pass 1's fan-out.", m.genElement),
		h("bbd_request_latency_ms", "latency_ms_request", "End-to-end request latency, every terminal outcome.", m.request),
		h("bbd_verify_latency_ms", "latency_ms_verify", "Per-compile logic-vs-simulation verifier latency.", m.verifyHist),
		h("bbd_scenario_grade_latency_ms", "latency_ms_scenario_grade", "Scenario grading latency per verify request (grading only, compile excluded).", m.scenarioHist),
	}
}

// writeProm renders the table as one Prometheus text exposition page for
// GET /metrics.
func (m *metrics) writeProm(w io.Writer, s *Server) error {
	p := prom.NewWriter(w)
	rows := m.table(s)
	for i := 0; i < len(rows); i++ {
		r := rows[i]
		switch {
		case r.name == "":
		case r.hist != nil:
			counts, _, sumMS := r.hist.snapshot()
			p.Histogram(r.name, r.help, r.hist.bounds, counts, sumMS)
		case r.kind == "histogram":
			// A toolchain that doesn't export a runtime histogram leaves it
			// empty; the family is still emitted so scrapers always see it.
			counts := make([]int64, len(r.rt.Bounds)+1)
			for j, n := range r.rt.Counts {
				counts[j] = int64(n)
			}
			p.Histogram(r.name, r.help, r.rt.Bounds, counts, r.rt.Sum)
		case r.label != "":
			label, _, _ := strings.Cut(r.label, "=")
			vals := make(map[string]float64)
			for ; i < len(rows) && rows[i].name == r.name; i++ {
				_, v, _ := strings.Cut(rows[i].label, "=")
				vals[v] = rows[i].val
			}
			i--
			if r.kind == "counter" {
				p.CounterVec(r.name, r.help, label, vals)
			} else {
				p.GaugeVec(r.name, r.help, label, vals)
			}
		case r.kind == "counter":
			p.Counter(r.name, r.help, r.val)
		default:
			p.Gauge(r.name, r.help, r.val)
		}
	}
	return p.Err()
}

// writeVars renders the keyed rows as the legacy /debug/vars JSON object.
func (m *metrics) writeVars(w io.Writer, s *Server) error {
	vars := make(map[string]any)
	for _, r := range m.table(s) {
		if r.key == "" {
			continue
		}
		var v any = r.val
		if r.hist != nil {
			v = json.RawMessage(r.hist.String())
		}
		obj, key := vars, r.key
		if group, leaf, nested := strings.Cut(r.key, "."); nested {
			if vars[group] == nil {
				vars[group] = make(map[string]any)
			}
			obj, key = vars[group].(map[string]any), leaf
		}
		obj[key] = v
	}
	return json.NewEncoder(w).Encode(vars)
}

// observeScenarios records one /verify grading pass: its latency, the
// scenario and vector tallies, and the request's worst grade as a gauge.
func (m *metrics) observeScenarios(d time.Duration, verdicts []scenario.Verdict) {
	m.scenarioGraded.Add(int64(len(verdicts)))
	worst := 100
	for i := range verdicts {
		v := &verdicts[i]
		m.scenarioVectors.Add(int64(v.Vectors))
		m.scenarioFailed.Add(int64(v.Vectors - v.Passed))
		if v.GradePercent < worst {
			worst = v.GradePercent
		}
	}
	m.scenarioGradeLast.Set(int64(worst))
	m.scenarioHist.observe(d)
}

// observeCompile records one cold or /verify compile: the compile count,
// the per-phase families from its phase record, every Pass 1
// element-generation span (the fan-out hot loop), and the build counters
// and last-compile gauges. It is the only writer of the per-phase
// families, so bbd_compiles_total and they move together; an edit
// session's compile is counted apart and feeds none of them.
func (m *metrics) observeCompile(chip *core.Chip, spans []trace.Span) {
	m.compiles.Add(1)
	ph := &chip.Phases
	for p, h := range m.passHist {
		h.observe(ph[p].Dur)
	}
	for p := range ph {
		m.phaseAllocs[p].Add(int64(ph[p].Objects))
		m.phaseAllocB[p].Add(int64(ph[p].Bytes))
	}
	for _, s := range spans {
		if s.Pass == trace.PassCore && strings.HasPrefix(s.Name, "gen.") {
			m.genElement.observe(time.Duration(s.DurUS) * time.Microsecond)
		}
	}

	st := chip.Stats
	m.coreCells.Add(int64(st.CellsGenerated))
	m.coreStretches.Add(int64(st.StretchesApplied))
	m.coreStretchDist.Add(int64(st.StretchDistanceLambda))
	m.coreBusBreaks.Add(int64(st.BusBreaks))
	m.plaTermsLast.Set(int64(st.PLATerms))
	m.pitchLast.Set(geom.InLambda(st.Pitch))
	m.plaTermsBeforeLast.Set(int64(st.PlaTermsBefore))
	m.plaTermsAfterLast.Set(int64(st.PlaTermsAfter))
	m.plaTermsMerged.Add(int64(st.PlaTermsBefore - st.PlaTermsAfter))
	m.plaAreaSaved.Add(st.PlaAreaSavedLambda2)
	m.routeNets.Add(st.RouteNets)
	m.routeCells.Add(st.RouteCellsExpanded)
	for {
		cur := m.routeFrontierPeak.Load()
		if st.RouteFrontierPeak <= cur || m.routeFrontierPeak.CompareAndSwap(cur, st.RouteFrontierPeak) {
			break
		}
	}
}
