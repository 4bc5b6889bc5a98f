package invariant_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/drc"
	"bristleblocks/internal/invariant"
	"bristleblocks/internal/layer"
	"bristleblocks/internal/scenario"
	"bristleblocks/internal/server"
	"bristleblocks/internal/server/farmtest"
	"bristleblocks/internal/specgen"
	"bristleblocks/internal/trace"
)

// The property-based harness: generate specs, cross-check every chip's
// representations, and diff every compile path. CI runs it wide
// (-invariant.n=200 -invariant.jobs=1,4,8); the defaults keep an ordinary
// `go test` fast. A failure names the generator seed, which reproduces the
// spec exactly (specgen.FromSeed).
var (
	flagN        = flag.Int("invariant.n", 25, "generated specs per harness test")
	flagPadsN    = flag.Int("invariant.padsn", 10, "generated specs for the pads-enabled differential")
	flagJobs     = flag.String("invariant.jobs", "1,4", "comma-separated pool sizes to diff (Passes 1 and 3)")
	flagSeed     = flag.Int64("invariant.seed", 1979, "first generator seed")
	flagEditSeqs = flag.Int("invariant.editseqs", 8, "edit sequences for the incremental differential")
	flagEdits    = flag.Int("invariant.edits", 3, "edits per incremental sequence")
	flagFarmN    = flag.Int("invariant.farmn", 10, "generated specs for the farm differential")
)

func harnessJobs(t *testing.T) []int {
	t.Helper()
	var jobs []int
	for _, f := range strings.Split(*flagJobs, ",") {
		j, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || j < 1 {
			t.Fatalf("-invariant.jobs: bad entry %q", f)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// TestHarnessInvariants runs the cross-representation verifier over the
// generated spec family.
func TestHarnessInvariants(t *testing.T) {
	bad := 0
	for i := 0; i < *flagN; i++ {
		seed := *flagSeed + int64(i)
		spec := specgen.FromSeed(seed, nil)
		chip, err := core.Compile(spec, &core.Options{SkipPads: true})
		if err != nil {
			t.Errorf("seed %d (%s): compile: %v", seed, spec.Name, err)
			bad++
			continue
		}
		if vs := invariant.Check(chip, &invariant.Options{Seed: seed}); len(vs) > 0 {
			bad++
			for _, v := range vs {
				t.Errorf("seed %d (%s): %s", seed, spec.Name, v)
			}
		}
	}
	t.Logf("invariants: %d specs checked (first seed %d), %d with discrepancies", *flagN, *flagSeed, bad)
}

// TestHarnessDifferential diffs serial vs parallel vs cached compiles over
// the generated spec family.
func TestHarnessDifferential(t *testing.T) {
	jobs := harnessJobs(t)
	cacheDir := t.TempDir()
	bad := 0
	for i := 0; i < *flagN; i++ {
		seed := *flagSeed + int64(i)
		spec := specgen.FromSeed(seed, nil)
		if vs := invariant.Differential(spec, &core.Options{SkipPads: true}, jobs, cacheDir); len(vs) > 0 {
			bad++
			for _, v := range vs {
				t.Errorf("seed %d (%s): %s", seed, spec.Name, v)
			}
		}
	}
	t.Logf("differential: %d specs diffed at jobs=%v (first seed %d), %d with diffs", *flagN, jobs, *flagSeed, bad)
}

// TestHarnessPadsDifferential is the Pass 3 leg: pads-enabled compiles of
// ForPads specs must be byte-identical across pool sizes — the rip-up
// ladder's moat×strategy race has to be invisible in the mask set and
// the statistics — and each chip's metal, the layer Pass 3 routes on,
// must pass DRC. (The other layers wait for the decoder's poly spacing
// fixes.)
func TestHarnessPadsDifferential(t *testing.T) {
	jobs := harnessJobs(t)
	cacheDir := t.TempDir()
	var notMetal []layer.Layer
	for l := layer.Layer(0); l < layer.NumLayers; l++ {
		if l != layer.Metal {
			notMetal = append(notMetal, l)
		}
	}
	bad := 0
	for i := 0; i < *flagPadsN; i++ {
		seed := *flagSeed + int64(i)
		spec := specgen.FromSeed(seed, &specgen.Config{ForPads: true})
		vs := invariant.Differential(spec, &core.Options{}, jobs, cacheDir)
		if chip, err := core.Compile(spec, &core.Options{Parallelism: 1}); err == nil {
			for _, v := range drc.Check(chip.Mask, layer.MeadConway(), &drc.Options{SkipLayers: notMetal}) {
				vs = append(vs, "drc: "+v.String())
			}
		} // a failed compile is already among Differential's findings
		if len(vs) > 0 {
			bad++
			for _, v := range vs {
				t.Errorf("seed %d (%s): %s", seed, spec.Name, v)
			}
		}
	}
	t.Logf("pads differential: %d specs diffed at jobs=%v and metal DRC-checked (first seed %d), %d with findings", *flagPadsN, jobs, *flagSeed, bad)
}

// TestHarnessIncrementalDifferential is the incremental-compiler leg:
// random edit sequences compiled through a warm artifact store must be
// byte-identical to scratch compiles at every pool size. CI runs it wide
// (-invariant.editseqs=100 -invariant.jobs=1,4,8); a failure names the
// generator seed, which reproduces the base spec and the whole edit
// sequence (specgen.FromSeed + specgen.MutateN with seed+1).
func TestHarnessIncrementalDifferential(t *testing.T) {
	jobs := harnessJobs(t)
	bad := 0
	for i := 0; i < *flagEditSeqs; i++ {
		seed := *flagSeed + int64(i)
		base := specgen.FromSeed(seed, nil)
		seq := append([]*core.Spec{base},
			specgen.MutateN(rand.New(rand.NewSource(seed+1)), base, *flagEdits)...)
		if vs := invariant.DifferentialIncremental(seq, &core.Options{SkipPads: true}, jobs); len(vs) > 0 {
			bad++
			for _, v := range vs {
				t.Errorf("seed %d (%s): %s", seed, base.Name, v)
			}
		}
	}
	t.Logf("incremental differential: %d sequences × %d edits at jobs=%v (first seed %d), %d with diffs",
		*flagEditSeqs, *flagEdits, jobs, *flagSeed, bad)
}

// TestHarnessScenario is the waveform leg: every generated spec gets a
// scenario derived from the decoder's logic representation (the oracle
// the invariant checker trusts) and the compiled switch-level stepper
// must reproduce every vector — grade 100%, no hand-written
// expectations. This is the leg that exercises the generator's newest
// shapes (OP2 second decode fields, two-global conditional assembly,
// buses-plus-globals specs) end to end through simulation.
func TestHarnessScenario(t *testing.T) {
	bad := 0
	for i := 0; i < *flagN; i++ {
		seed := *flagSeed + int64(i)
		spec := specgen.FromSeed(seed, nil)
		chip, err := core.Compile(spec, &core.Options{SkipPads: true})
		if err != nil {
			t.Errorf("seed %d (%s): compile: %v", seed, spec.Name, err)
			bad++
			continue
		}
		sc, err := scenario.FromLogic(context.Background(), chip, seed, 24)
		if err != nil {
			t.Errorf("seed %d (%s): oracle scenario: %v", seed, spec.Name, err)
			bad++
			continue
		}
		v := scenario.Grade(chip, sc)
		if !v.Passed100() {
			bad++
			t.Errorf("seed %d (%s): graded %d%% (%d/%d vectors): %v",
				seed, spec.Name, v.GradePercent, v.Passed, v.Vectors, v.Failures)
		}
	}
	t.Logf("scenario: %d specs graded against the logic oracle (first seed %d), %d below 100%%", *flagN, *flagSeed, bad)
}

// TestHarnessDaemon is the bristlec-vs-bbd leg: the daemon's HTTP answer
// for a spec must match a direct in-process compile byte for byte.
func TestHarnessDaemon(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	n := *flagN
	for i := 0; i < n; i++ {
		seed := *flagSeed + int64(i)
		spec := specgen.FromSeed(seed, nil)

		opts := &core.Options{SkipPads: true, Parallelism: 1}
		chip, want, err := invariant.RenderOutputs(spec, opts)
		if err != nil {
			t.Fatalf("seed %d (%s): local compile: %v", seed, spec.Name, err)
		}

		// The HTTP arm injects a traceparent like any farm client would;
		// the daemon must join that trace, not mint its own.
		sc := trace.NewSpanContext()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/compile?nopads=1&reps=all",
			strings.NewReader(desc.Format(spec)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "text/plain")
		req.Header.Set("traceparent", sc.Traceparent())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var cr server.CompileResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d (%s): daemon returned %d", seed, spec.Name, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		if cr.CIF != want.CIF {
			t.Errorf("seed %d (%s): daemon CIF differs from the local compile's", seed, spec.Name)
		}
		if cr.Text != chip.Text {
			t.Errorf("seed %d (%s): daemon text representation differs", seed, spec.Name)
		}
		if cr.Block != chip.Block {
			t.Errorf("seed %d (%s): daemon block diagram differs", seed, spec.Name)
		}
		if cr.Logical != chip.Logical {
			t.Errorf("seed %d (%s): daemon logical diagram differs", seed, spec.Name)
		}
		if cr.Stats != chip.Stats {
			t.Errorf("seed %d (%s): daemon stats differ: %+v vs %+v", seed, spec.Name, cr.Stats, chip.Stats)
		}
		if cr.Chip != spec.Name {
			t.Errorf("seed %d: daemon says chip %q, spec says %q", seed, cr.Chip, spec.Name)
		}
		if cr.TraceID != sc.TraceIDString() {
			t.Errorf("seed %d: daemon compiled under trace %q, client injected %q", seed, cr.TraceID, sc.TraceIDString())
		}
	}
	t.Logf("daemon: %d specs compared over HTTP (first seed %d)", n, *flagSeed)
}

// TestHarnessFarmDifferential is the horizontal-scaling leg: a 3-worker
// farm behind a coordinator, compiling a batch of generated specs over
// the streaming endpoint, must be byte-identical — CIF, sticks, every
// text representation, and the statistics — to a single-node daemon AND
// to a direct in-process compile, at every pool size. Three more arms
// ride the same farm: a warm-hit arm re-requesting specs from a
// non-coordinator worker (the answer arrives through the peer cache
// tier and must still match), a verdict arm grading the example
// scenario suite on a farm node vs the single node, and the coordinator
// metrics sanity check. CI runs it wide (-invariant.farmn=200
// -invariant.jobs=1,4,8); a failure names the generator seed.
func TestHarnessFarmDifferential(t *testing.T) {
	n := *flagFarmN
	for _, j := range harnessJobs(t) {
		j := j
		t.Run(fmt.Sprintf("jobs=%d", j), func(t *testing.T) {
			farm, err := farmtest.New(farmtest.Config{
				Workers:     3,
				Coordinator: true,
				Node:        server.Config{Workers: 2, QueueDepth: 64, Parallelism: j},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer farm.Close()
			single, err := server.New(server.Config{Workers: 2, QueueDepth: 64, Parallelism: j})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(single.Handler())
			defer ts.Close()

			// Local references: the same compiles the other harness legs
			// trust, at Parallelism 1 so the farm arm also re-proves
			// pool-size invariance against the serial compiler.
			specs := make([]*core.Spec, n)
			texts := make([]string, n)
			chips := make([]*core.Chip, n)
			wants := make([]invariant.Outputs, n)
			for i := 0; i < n; i++ {
				seed := *flagSeed + int64(i)
				specs[i] = specgen.FromSeed(seed, nil)
				texts[i] = desc.Format(specs[i])
				chip, want, err := invariant.RenderOutputs(specs[i], &core.Options{SkipPads: true, Parallelism: 1})
				if err != nil {
					t.Fatalf("seed %d (%s): local compile: %v", seed, specs[i].Name, err)
				}
				chips[i], wants[i] = chip, want
			}

			// Arm 1: the whole corpus as one streaming batch through the
			// coordinator — cold compiles routed across the workers.
			body, err := json.Marshal(server.BatchRequest{Specs: texts})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(farm.Coordinator().URL+"/compile/batch?nopads=1&reps=all",
				"application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("batch returned %d", resp.StatusCode)
			}
			items := make([]*server.BatchItem, n)
			dec := json.NewDecoder(resp.Body)
			for dec.More() {
				var item server.BatchItem
				if err := dec.Decode(&item); err != nil {
					t.Fatalf("batch stream: %v", err)
				}
				if item.Index < 0 || item.Index >= n {
					t.Fatalf("batch stream: index %d out of range", item.Index)
				}
				if items[item.Index] != nil {
					t.Fatalf("batch stream: index %d delivered twice", item.Index)
				}
				it := item
				items[item.Index] = &it
			}
			resp.Body.Close()

			// Arm 2: every spec against the single-node daemon and the local
			// reference, field by field.
			for i := 0; i < n; i++ {
				seed := *flagSeed + int64(i)
				name := specs[i].Name
				if items[i] == nil {
					t.Fatalf("seed %d (%s): batch never delivered index %d", seed, name, i)
				}
				if items[i].Error != "" || items[i].Result == nil {
					t.Fatalf("seed %d (%s): batch item failed: %q", seed, name, items[i].Error)
				}
				fr := items[i].Result

				sresp, err := http.Post(ts.URL+"/compile?nopads=1&reps=all", "text/plain",
					strings.NewReader(texts[i]))
				if err != nil {
					t.Fatal(err)
				}
				if sresp.StatusCode != http.StatusOK {
					t.Fatalf("seed %d (%s): single node returned %d", seed, name, sresp.StatusCode)
				}
				var sr server.CompileResponse
				if err := json.NewDecoder(sresp.Body).Decode(&sr); err != nil {
					t.Fatal(err)
				}
				sresp.Body.Close()

				for _, d := range []struct{ what, farm, single, local string }{
					{"CIF", fr.CIF, sr.CIF, wants[i].CIF},
					{"sticks", fr.Sticks, sr.Sticks, wants[i].Sticks},
					{"text", fr.Text, sr.Text, chips[i].Text},
					{"block", fr.Block, sr.Block, chips[i].Block},
					{"logical", fr.Logical, sr.Logical, chips[i].Logical},
				} {
					if d.farm != d.single {
						t.Errorf("seed %d (%s): farm %s differs from single-node", seed, name, d.what)
					}
					if d.farm != d.local {
						t.Errorf("seed %d (%s): farm %s differs from local compile", seed, name, d.what)
					}
				}
				if fr.Stats != sr.Stats || fr.Stats != chips[i].Stats {
					t.Errorf("seed %d (%s): stats differ: farm %+v single %+v local %+v",
						seed, name, fr.Stats, sr.Stats, chips[i].Stats)
				}
				if fr.Chip != name || sr.Chip != name {
					t.Errorf("seed %d: chip named %q/%q, spec says %q", seed, fr.Chip, sr.Chip, name)
				}
			}

			// Arm 3: warm hits through the peer tier. The batch populated the
			// shard owners; a worker that didn't compile a spec must answer
			// from the shared tier — cached, and still byte-identical.
			warm := farm.Workers()[0]
			for i := 0; i < n; i += 3 {
				seed := *flagSeed + int64(i)
				wresp, err := http.Post(warm.URL+"/compile?nopads=1&reps=all", "text/plain",
					strings.NewReader(texts[i]))
				if err != nil {
					t.Fatal(err)
				}
				if wresp.StatusCode != http.StatusOK {
					t.Fatalf("seed %d: warm worker returned %d", seed, wresp.StatusCode)
				}
				var wr server.CompileResponse
				if err := json.NewDecoder(wresp.Body).Decode(&wr); err != nil {
					t.Fatal(err)
				}
				wresp.Body.Close()
				if !wr.Cached {
					t.Errorf("seed %d (%s): warm request recompiled; the batch should have warmed the tier", seed, specs[i].Name)
				}
				if wr.CIF != wants[i].CIF || wr.Sticks != wants[i].Sticks || wr.Stats != chips[i].Stats {
					t.Errorf("seed %d (%s): warm peer-tier answer differs from the local compile", seed, specs[i].Name)
				}
			}

			// Arm 4: the example scenario suite graded on a farm worker vs the
			// single node — verdict lists must match byte for byte.
			chipsDir := filepath.Join("..", "..", "examples", "chips")
			bbs, err := filepath.Glob(filepath.Join(chipsDir, "*.bb"))
			if err != nil || len(bbs) == 0 {
				t.Fatalf("no example chips found: %v", err)
			}
			for _, bb := range bbs {
				name := strings.TrimSuffix(filepath.Base(bb), ".bb")
				sv := filepath.Join("..", "..", "examples", "scenarios", name+".sv")
				specSrc, err := os.ReadFile(bb)
				if err != nil {
					t.Fatal(err)
				}
				vectors, err := os.ReadFile(sv)
				if err != nil {
					t.Fatal(err)
				}
				req := server.VerifyRequest{Spec: string(specSrc), Vectors: string(vectors)}
				fv := postVerifyJSON(t, farm.Workers()[1].URL+"/verify", req)
				sv2 := postVerifyJSON(t, ts.URL+"/verify", req)
				if fv.Chip != sv2.Chip || fv.Passed != sv2.Passed || fv.Key != sv2.Key || fv.Stats != sv2.Stats {
					t.Errorf("%s: farm verdict header differs: %+v vs %+v", name, fv, sv2)
				}
				fb, _ := json.Marshal(fv.Verdicts)
				sb, _ := json.Marshal(sv2.Verdicts)
				if !bytes.Equal(fb, sb) {
					t.Errorf("%s: farm verdict list differs from single-node:\nfarm:   %s\nsingle: %s", name, fb, sb)
				}
			}
		})
	}
	t.Logf("farm differential: %d specs batched through a 3-worker farm at jobs=%v (first seed %d)",
		n, harnessJobs(t), *flagSeed)
}

func postVerifyJSON(t *testing.T, url string, req server.VerifyRequest) *server.VerifyResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s returned %d", url, resp.StatusCode)
	}
	var vr server.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	return &vr
}
