// Bristlec is the silicon compiler driver: it reads a chip description
// (.bb), runs the three compiler passes, and writes the mask set plus any
// requested representations — the paper's "one design cycle" workflow.
//
// Usage:
//
//	bristlec chip.bb                   # compile, write chip.cif
//	bristlec -o out.cif chip.bb        # choose the CIF path
//	bristlec -reps outdir chip.bb      # also write all representations
//	bristlec -check chip.bb            # also run DRC and netlist extraction
//	bristlec -stats chip.bb            # print the compilation statistics
//	bristlec -nopads chip.bb           # stop after Pass 2 (core + decoder)
//	bristlec -plot chip.png chip.bb    # PNG check plot of the mask set
//	bristlec -run prog.uc chip.bb      # assemble microcode, run it on the
//	                                   # simulation representation, print the
//	                                   # trace and final register state
//	bristlec -pads io=0xC8 -run ...    # preset input pads before the run
//	bristlec -verify chip.sv chip.bb   # grade waveform scenarios (.sv) on
//	                                   # the compiled simulator; exit 3 if
//	                                   # any vector fails
//	bristlec -j 8 chip.bb              # Pass 1 fan-out on 8 workers
//	bristlec -trace chip.bb            # print per-pass/per-element spans
//	bristlec -trace-out trace.json ... # write the compile trace as Chrome
//	                                   # trace_event JSON (open in Perfetto
//	                                   # or chrome://tracing)
//	bristlec -watch chip.bb            # recompile on every edit, reusing
//	                                   # unchanged cells from a warm
//	                                   # artifact store
//	bristlec -remote http://host:8723 chip.bb
//	                                   # ship the spec to a bbd daemon
//	                                   # instead of compiling locally; the
//	                                   # request carries a W3C traceparent
//	                                   # so the daemon's spans join this
//	                                   # invocation's trace
//
// Remote mode writes the daemon's CIF to the usual output path and prints
// the trace id; it honors -nopads but skips the local-only extras
// (-check, -run, -plot, -reps, -trace, -verify).
//
// Watch mode is the paper's edit-compile design cycle as a loop: the spec
// file is polled for changes and each save recompiles incrementally,
// printing the latency and artifact-store hit ratio. Watch mode writes
// the CIF on every compile but skips the one-shot extras (-check, -run,
// -plot, -reps, -trace, -verify).
//
// Exit codes: 0 success; 1 a parse, compile, or I/O error; 2 bad usage;
// 3 the chip compiled but failed verification (a -check DRC or netlist
// mismatch, or a -verify scenario below 100%). Scripts can tell a broken
// description (1) from a broken chip (3).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bristleblocks"
	"bristleblocks/internal/incr"
	"bristleblocks/internal/scenario"
	"bristleblocks/internal/trace"
)

// exitVerifyFailed is the exit code for a chip that compiled cleanly but
// failed verification: a -check DRC violation or netlist mismatch, or a
// -verify scenario grading below 100%. Parse/compile/I/O errors exit 1
// (fatal) and usage errors exit 2, so the three failure classes are
// distinguishable to scripts and CI.
const exitVerifyFailed = 3

func main() {
	out := flag.String("o", "", "output CIF path (default: input with .cif)")
	reps := flag.String("reps", "", "directory to write all representations into")
	check := flag.Bool("check", false, "run DRC and compare extracted vs declared netlist")
	stats := flag.Bool("stats", false, "print compilation statistics")
	noPads := flag.Bool("nopads", false, "stop after Pass 2 (no pad ring)")
	run := flag.String("run", "", "microcode source file to assemble and simulate")
	verifySV := flag.String("verify", "", "scenario file (.sv) to grade against the compiled chip; exits 3 if any vector fails")
	plotPath := flag.String("plot", "", "write a PNG check plot of the chip to this path")
	padsIn := flag.String("pads", "", "preset I/O element pads before -run, e.g. io=0xC8 (comma separated)")
	jobs := flag.Int("j", 0, "worker pool size for Pass 1's element fan-out and Pass 3's rip-up ladder race (0 = GOMAXPROCS, 1 = serial; output is identical at every width)")
	showTrace := flag.Bool("trace", false, "print the compile trace (per-pass and per-element spans)")
	traceOut := flag.String("trace-out", "", "write the compile trace as Chrome trace_event JSON to this path")
	watch := flag.Bool("watch", false, "poll the spec file and recompile on every change, reusing unchanged cells from a warm artifact store")
	watchInterval := flag.Duration("watch-interval", 250*time.Millisecond, "poll interval for -watch")
	watchMax := flag.Int("watch-max", 0, "with -watch, exit after this many successful compiles (0 = until interrupted)")
	remote := flag.String("remote", "", "compile via a bbd daemon at this base URL (e.g. http://localhost:8723) instead of locally; injects a traceparent so the daemon joins this invocation's trace")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bristlec [flags] chip.bb")
		flag.PrintDefaults()
		os.Exit(2)
	}
	in := flag.Arg(0)
	if *remote != "" {
		cifPath := *out
		if cifPath == "" {
			cifPath = strings.TrimSuffix(in, filepath.Ext(in)) + ".cif"
		}
		if err := runRemote(os.Stdout, http.DefaultClient, *remote, in, cifPath, *noPads); err != nil {
			fatal(err)
		}
		return
	}
	if *watch {
		cifPath := *out
		if cifPath == "" {
			cifPath = strings.TrimSuffix(in, filepath.Ext(in)) + ".cif"
		}
		opts := &bristleblocks.Options{SkipPads: *noPads, Parallelism: *jobs}
		if err := runWatch(os.Stdout, in, cifPath, opts, *watchInterval, *watchMax); err != nil {
			fatal(err)
		}
		return
	}
	src, err := os.ReadFile(in)
	if err != nil {
		fatal(err)
	}
	spec, err := bristleblocks.ParseSpec(string(src))
	if err != nil {
		fatal(fmt.Errorf("%s: %w", in, err))
	}
	ctx := context.Background()
	var tr *trace.Trace
	if *showTrace || *traceOut != "" {
		tr = trace.New()
		ctx = trace.WithTrace(ctx, tr)
	}
	chip, err := bristleblocks.CompileCtx(ctx, spec, &bristleblocks.Options{
		SkipPads:    *noPads,
		Parallelism: *jobs,
	})
	if err != nil {
		fatal(fmt.Errorf("compile %s: %w", spec.Name, err))
	}

	cifPath := *out
	if cifPath == "" {
		cifPath = strings.TrimSuffix(in, filepath.Ext(in)) + ".cif"
	}
	f, err := os.Create(cifPath)
	if err != nil {
		fatal(err)
	}
	if err := bristleblocks.WriteCIF(f, chip); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d transistors, %d columns, %d pads -> %s\n",
		spec.Name, chip.Stats.Transistors, chip.Stats.Columns, chip.Stats.PadCount, cifPath)

	if *showTrace {
		fmt.Print(tr.String())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChrome(f, tr.Spans()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("  trace -> %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}

	if *stats {
		st := chip.Stats
		fmt.Printf("  core    %dλ x %dλ\n", st.CoreBounds.W()/4, st.CoreBounds.H()/4)
		fmt.Printf("  chip    %dλ x %dλ (%.0f square lambda)\n",
			st.ChipBounds.W()/4, st.ChipBounds.H()/4, bristleblocks.AreaLambda(chip))
		fmt.Printf("  controls %d, PLA terms %d, power %d µA\n", st.Controls, st.PLATerms, st.PowerUA)
		ph := &chip.Phases
		fmt.Printf("  passes  core %s, control %s, pads %s (total %s)\n",
			ph[trace.PhaseCore].Dur, ph[trace.PhaseControl].Dur, ph[trace.PhasePads].Dur, ph[trace.PhaseTotal].Dur)
	}

	if *check {
		if vs := bristleblocks.CheckDRC(chip); len(vs) != 0 {
			fmt.Fprintf(os.Stderr, "DRC: %d violations\n", len(vs))
			for _, v := range vs {
				fmt.Fprintln(os.Stderr, " ", v)
			}
			os.Exit(exitVerifyFailed)
		}
		fmt.Println("  DRC clean")
		ext, err := bristleblocks.ExtractNetlist(chip)
		if err != nil {
			fatal(fmt.Errorf("extract: %w", err))
		}
		if ext.GlobalSignature(nil) != chip.Netlist.GlobalSignature(nil) {
			fmt.Fprintln(os.Stderr, "extracted netlist differs from declared netlist")
			os.Exit(exitVerifyFailed)
		}
		fmt.Printf("  extraction matches: %d transistors\n", len(ext.Txs))
	}

	if *reps != "" {
		if err := writeReps(*reps, chip); err != nil {
			fatal(err)
		}
	}

	if *plotPath != "" {
		f, err := os.Create(*plotPath)
		if err != nil {
			fatal(err)
		}
		if err := bristleblocks.WritePlot(f, chip, 0); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("  check plot -> %s\n", *plotPath)
	}

	if *run != "" {
		if err := runProgram(chip, spec, *run, *padsIn); err != nil {
			fatal(err)
		}
	}

	if *verifySV != "" {
		if err := runVerify(chip, *verifySV); err != nil {
			fatal(err)
		}
	}
}

// runRemote is the client half of the compile service: read the spec,
// POST it to a bbd daemon with a freshly minted W3C traceparent header —
// so the daemon's pass spans land under this invocation's trace id — and
// write the returned CIF where a local compile would have. The daemon
// echoes the trace id back; printing it gives the operator the join key
// into the daemon's flight recorder and any exported OTLP stream.
func runRemote(w io.Writer, client *http.Client, base, in, cifPath string, noPads bool) error {
	src, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	u := strings.TrimRight(base, "/") + "/compile?reps=cif"
	if noPads {
		u += "&nopads=1"
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(src))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	sc := trace.NewSpanContext()
	req.Header.Set("traceparent", sc.Traceparent())
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("remote compile: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("remote compile: %s: %s", resp.Status, e.Error)
	}
	var cr struct {
		RequestID string `json:"request_id"`
		TraceID   string `json:"trace_id"`
		Chip      string `json:"chip"`
		Cached    bool   `json:"cached"`
		CIF       string `json:"cif"`
		// core.Stats carries no json tags; fields keep their Go names.
		Stats struct {
			Transistors int
			Columns     int
			PadCount    int
		} `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return fmt.Errorf("remote compile: decoding response: %w", err)
	}
	if cr.CIF == "" {
		return fmt.Errorf("remote compile: daemon returned no CIF")
	}
	if err := os.WriteFile(cifPath, []byte(cr.CIF), 0o644); err != nil {
		return err
	}
	served := "compiled"
	if cr.Cached {
		served = "cached"
	}
	fmt.Fprintf(w, "%s: %d transistors, %d columns, %d pads -> %s (%s by %s, request %s, trace %s)\n",
		cr.Chip, cr.Stats.Transistors, cr.Stats.Columns, cr.Stats.PadCount,
		cifPath, served, strings.TrimRight(base, "/"), cr.RequestID, cr.TraceID)
	return nil
}

// runVerify grades every scenario in a .sv file against the compiled
// chip and prints one verdict line each. An unreadable or unparsable
// file is an input error (exit 1 via fatal); a scenario below 100% —
// failed vectors or a graded setup error — exits with exitVerifyFailed.
func runVerify(chip *bristleblocks.Chip, path string) error {
	scs, err := scenario.ParseFile(path)
	if err != nil {
		return err
	}
	verdicts := scenario.GradeAll(chip, scs)
	failed := 0
	fmt.Printf("verify %s: %d scenarios\n", path, len(verdicts))
	for _, v := range verdicts {
		if v.Error != "" {
			failed++
			fmt.Printf("  %-20s ERROR: %s\n", v.Scenario, v.Error)
			continue
		}
		mark := "ok"
		if !v.Passed100() {
			failed++
			mark = "FAIL"
		}
		fmt.Printf("  %-20s %s %d/%d vectors (%d%%)\n", v.Scenario, mark, v.Passed, v.Vectors, v.GradePercent)
		for _, f := range v.Failures {
			fmt.Printf("    %s\n", f)
		}
	}
	if len(verdicts) > 0 {
		d := verdicts[0].Design
		fmt.Printf("  design score %d (area %dλ², %d PLA terms, %d µA)\n",
			d.Score, d.AreaLambda2, d.PLATerms, d.PowerUA)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bristlec: %d of %d scenarios failed verification\n", failed, len(verdicts))
		os.Exit(exitVerifyFailed)
	}
	return nil
}

// runWatch is the edit-compile loop: poll the spec file's mtime and
// recompile on every change against a warm artifact store, so each save
// regenerates only the cells the edit touched. Parse and compile errors
// are reported and the loop keeps watching; maxCompiles bounds the loop
// for tests (0 = run until interrupted).
func runWatch(w io.Writer, in, cifPath string, opts *bristleblocks.Options, interval time.Duration, maxCompiles int) error {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	store, err := incr.New(0, "")
	if err != nil {
		return err
	}
	ctx := incr.WithStore(context.Background(), store)
	fmt.Fprintf(w, "watching %s (every %s; ^C to stop)\n", in, interval)
	var lastMod time.Time
	var lastSize int64
	compiles := 0
	for first := true; ; first = false {
		if !first {
			time.Sleep(interval)
		}
		fi, err := os.Stat(in)
		if err != nil {
			if first {
				return err
			}
			fmt.Fprintln(os.Stderr, "bristlec:", err)
			continue
		}
		if fi.ModTime().Equal(lastMod) && fi.Size() == lastSize {
			continue
		}
		lastMod, lastSize = fi.ModTime(), fi.Size()
		src, err := os.ReadFile(in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bristlec:", err)
			continue
		}
		spec, err := bristleblocks.ParseSpec(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bristlec: %s: %v\n", in, err)
			continue
		}
		before := store.Counters()
		chip, err := bristleblocks.CompileCtx(ctx, spec, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bristlec: compile %s: %v\n", spec.Name, err)
			continue
		}
		f, err := os.Create(cifPath)
		if err != nil {
			return err
		}
		if err := bristleblocks.WriteCIF(f, chip); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		after := store.Counters()
		hits := after.Hits - before.Hits
		misses := after.Misses - before.Misses
		var ratio float64
		if hits+misses > 0 {
			ratio = float64(hits) / float64(hits+misses)
		}
		compiles++
		fmt.Fprintf(w, "%s: %d transistors, %d columns, %d pads -> %s (%s, %d/%d artifact hits, ratio %.2f)\n",
			spec.Name, chip.Stats.Transistors, chip.Stats.Columns, chip.Stats.PadCount,
			cifPath, chip.Phases[trace.PhaseTotal].Dur.Round(time.Microsecond), hits, hits+misses, ratio)
		if maxCompiles > 0 && compiles >= maxCompiles {
			return nil
		}
	}
}

// runProgram assembles a microcode source file and executes it on the
// chip's Simulation representation.
func runProgram(chip *bristleblocks.Chip, spec *bristleblocks.Spec, path, padsIn string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	program, err := bristleblocks.AssembleMicrocode(spec, string(src))
	if err != nil {
		return err
	}
	machine, err := chip.NewSim()
	if err != nil {
		return err
	}
	if err := presetPads(chip, padsIn); err != nil {
		return err
	}
	trace := machine.Run(program)

	var buses []string
	if len(spec.Buses) > 0 {
		for _, b := range spec.Buses {
			buses = append(buses, b.Name)
		}
	} else {
		buses = []string{"A", "B"}
	}
	fmt.Printf("ran %d instructions from %s\n\n", len(program), path)
	fmt.Println("listing:")
	for i, w := range program {
		fmt.Printf("  %3d  %#06x  %s\n", i, w, bristleblocks.DisassembleMicrocode(spec, w))
	}
	fmt.Println()
	fmt.Println(bristleblocks.FormatTrace(trace, buses))
	fmt.Println("final element state:")
	for _, col := range chip.Columns() {
		if m, ok := chip.Model(col.Name).(interface{ Value() uint64 }); ok {
			fmt.Printf("  %-12s %#x\n", col.Name, m.Value())
		}
	}
	return nil
}

// presetPads applies "-pads name=value,name=value" to the I/O element
// models before a run.
func presetPads(chip *bristleblocks.Chip, spec string) error {
	if spec == "" {
		return nil
	}
	for _, kv := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("-pads entry %q is not name=value", kv)
		}
		v, err := strconv.ParseUint(val, 0, 64)
		if err != nil {
			return fmt.Errorf("-pads %s: bad value %q", name, val)
		}
		m, ok := chip.Model(name).(interface{ SetPads(uint64) })
		if !ok {
			return fmt.Errorf("-pads: element %q is not an I/O port", name)
		}
		m.SetPads(v)
	}
	return nil
}

func writeReps(dir string, chip *bristleblocks.Chip) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
	}
	if err := write("sticks.txt", chip.Sticks.Render(16)); err != nil {
		return err
	}
	if err := write("transistors.txt", chip.Netlist.String()+"\n"); err != nil {
		return err
	}
	if err := write("logic.txt", chip.Logic.Render()); err != nil {
		return err
	}
	if err := write("manual.txt", chip.Text); err != nil {
		return err
	}
	if err := write("block.txt", chip.Block+"\n"+chip.Logical); err != nil {
		return err
	}
	fmt.Printf("  representations -> %s/\n", dir)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bristlec:", err)
	os.Exit(1)
}
