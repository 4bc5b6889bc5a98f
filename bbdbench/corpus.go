package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"bristleblocks/internal/core"
	"bristleblocks/internal/desc"
	"bristleblocks/internal/specgen"
)

// Workload names, as BENCHMARK.json lists them.
const (
	coldCompile = "cold_compile"
	hotCache    = "hot_cache"
	editSession = "edit_session"
)

// Corpus sizes. A run replays its whole corpus rather than stopping at a
// deadline: time-boxed runs drift because the heavy-tailed Pass 3
// rejections (200–470 ms each) land in varying numbers. The per-second
// rates size each corpus so its timed window lasts about --seconds on the
// 2-core reference host.
const (
	coldPerSecond = 230
	hotPerSecond  = 5000
	editPerSecond = 420

	// hotSetSize distinct specs are primed and the Zipf draw ranges over
	// them. hotSpare extra candidates stand in for specs Pass 3 rejects,
	// which answer 422 on every request and are never cached.
	hotSetSize = 256
	hotSpare   = 16
	hotZipfS   = 1.1

	// editChainLen Mutate edits follow each session's base compile.
	editChainLen = 40
)

// spec is one distinct input of a corpus.
type spec struct {
	text string
	// seed is the specgen seed, or -1 for an example chip.
	seed int64
	// golden is an example chip's testdata/golden directory ("" otherwise).
	golden string
}

// corpus is one workload's inputs, generated from its seed alone.
type corpus struct {
	workload string
	// path is the request path and query (/compile), or the query an edit
	// session appends to /session/{id}/compile.
	path  string
	specs []spec
	// order is the spec index of every request, in replay order.
	order []int
	// chains groups order into edit sessions (edit_session only): a base
	// spec, then its Mutate chain. chainStart[i] is chain i's first
	// request.
	chains     [][]int
	chainStart []int
	// ranks are hot_cache's Zipf draws over the hot set; prime resolves
	// them into order once it knows which candidates compile.
	ranks []int
	// primed counts the hot_cache candidates the daemon compiled.
	primed int
	digest string
}

// newCorpus generates the inputs of one run. root is the repository
// root, where the example chips and their goldens live. Generated specs
// come from specgen seeds seed+i, so consecutive seeds share most inputs.
func newCorpus(root, workload string, seed int64, seconds int) (*corpus, error) {
	c := &corpus{workload: workload}
	pads := &specgen.Config{ForPads: true}
	switch workload {
	case coldCompile:
		c.path = "/compile?reps=cif,sticks"
		if err := c.addExamples(root); err != nil {
			return nil, err
		}
		seen := make(map[string]bool)
		for _, s := range c.specs {
			seen[s.text] = true
		}
		// Distinct texts only, so every request misses the cache.
		for i := int64(0); len(c.specs) < coldPerSecond*seconds; i++ {
			text := desc.Format(specgen.FromSeed(seed+i, pads))
			if !seen[text] {
				seen[text] = true
				c.specs = append(c.specs, spec{text: text, seed: seed + i})
			}
		}
		c.order = seq(len(c.specs))
	case hotCache:
		c.path = "/compile?reps=cif,sticks"
		for i := int64(0); i < hotSetSize+hotSpare; i++ {
			c.add(specgen.FromSeed(seed+i, pads), seed+i)
		}
		z := rand.NewZipf(rand.New(rand.NewSource(seed)), hotZipfS, 1, hotSetSize-1)
		c.ranks = make([]int, hotPerSecond*seconds)
		for i := range c.ranks {
			c.ranks[i] = int(z.Uint64())
		}
	case editSession:
		c.path = "?nopads=1&reps=cif"
		// A multiple of clients×windowParts sessions gives every client the
		// same work in every part of the window.
		m := clients * windowParts
		n := (editPerSecond*seconds/(editChainLen+1) + m - 1) / m * m
		for ch := int64(0); ch < int64(n); ch++ {
			base := specgen.FromSeed(seed+ch, nil)
			chain := []int{c.add(base, seed+ch)}
			for _, m := range specgen.MutateN(rand.New(rand.NewSource(seed+ch)), base, editChainLen) {
				chain = append(chain, c.add(m, seed+ch))
			}
			c.chainStart = append(c.chainStart, len(c.order))
			c.chains = append(c.chains, chain)
			c.order = append(c.order, chain...)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", workload, coldCompile, hotCache, editSession)
	}
	c.digest = c.sum()
	return c, nil
}

func (c *corpus) add(s *core.Spec, seed int64) int {
	c.specs = append(c.specs, spec{text: desc.Format(s), seed: seed})
	return len(c.specs) - 1
}

// addExamples adds examples/chips/*.bb, sent as written.
func (c *corpus) addExamples(root string) error {
	dir := filepath.Join(root, "examples", "chips")
	paths, err := filepath.Glob(filepath.Join(dir, "*.bb"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no example chips under %s", dir)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(filepath.Base(p), ".bb")
		c.specs = append(c.specs, spec{text: string(b), seed: -1, golden: filepath.Join(root, "testdata", "golden", name)})
	}
	return nil
}

// sum is the corpus digest: a hash of every input and the replay order,
// so two runs with one digest sent the same request sequence.
func (c *corpus) sum() string {
	h := sha256.New()
	var n [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	h.Write([]byte(c.workload + "\x00" + c.path + "\x00"))
	for _, s := range c.specs {
		put(int64(len(s.text)))
		h.Write([]byte(s.text))
	}
	for _, xs := range [][]int{c.order, c.chainStart, c.ranks} {
		put(int64(len(xs)))
		for _, x := range xs {
			put(int64(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// part returns the p-th of k consecutive slices of the replay, as a
// corpus sharing c's specs. Edit sessions are never split.
func (c *corpus) part(p, k int) *corpus {
	sub := &corpus{workload: c.workload, path: c.path, specs: c.specs}
	if c.chains == nil {
		sub.order = c.order[p*len(c.order)/k : (p+1)*len(c.order)/k]
		return sub
	}
	for _, ch := range c.chains[p*len(c.chains)/k : (p+1)*len(c.chains)/k] {
		sub.chainStart = append(sub.chainStart, len(sub.order))
		sub.chains = append(sub.chains, ch)
		sub.order = append(sub.order, ch...)
	}
	return sub
}

// requested returns the distinct spec indexes the replay sends.
func (c *corpus) requested() []int {
	seen := make(map[int]bool)
	var ids []int
	for _, i := range c.order {
		if !seen[i] {
			seen[i] = true
			ids = append(ids, i)
		}
	}
	return ids
}

// options are the compile options bbd derives from the request path
// (bbd's -j default of 1 sets Parallelism).
func (c *corpus) options() core.Options {
	return core.Options{Parallelism: 1, SkipPads: c.workload == editSession}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
