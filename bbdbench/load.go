package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bristleblocks/internal/server"
)

// hashSeed keys every output hash. Responses and oracle outputs are
// hashed in one process, so a per-process seed suffices.
var hashSeed = maphash.MakeSeed()

// outcome is one request as the client saw it.
type outcome struct {
	lat    time.Duration
	status int    // 0 = transport failure
	msg    string // a non-2xx answer's error text, or the transport error
	// cif and sticks hash the raw JSON string values of the answer's
	// representations; the oracle compares them after the window.
	cif, sticks uint64
}

// loadgen sends requests to one server from closed-loop clients.
type loadgen struct {
	base   string
	client *http.Client
}

func newLoadgen(base string) *loadgen {
	return &loadgen{base: base, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}}
}

// replay sends every request of c from clients closed-loop clients and
// returns the outcomes in corpus order. Compile requests are handed out
// in corpus order; edit sessions are dealt round-robin, each client
// running its sessions start to finish.
func (d *loadgen) replay(ctx context.Context, c *corpus) []outcome {
	defer d.client.CloseIdleConnections()
	out := make([]outcome, len(c.order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if c.chains != nil {
				for ch := k; ch < len(c.chains); ch += clients {
					d.session(ctx, c, ch, out[c.chainStart[ch]:], &buf)
				}
				return
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(c.order) {
					return
				}
				out[i] = d.post(ctx, d.base+c.path, c.specs[c.order[i]].text, &buf)
			}
		}()
	}
	wg.Wait()
	return out
}

// session runs one edit session: open it, compile its chain in order,
// close it. Only the compiles are requests.
func (d *loadgen) session(ctx context.Context, c *corpus, ch int, out []outcome, buf *bytes.Buffer) {
	chain := c.chains[ch]
	id, err := d.openSession(ctx)
	if err != nil {
		for j := range chain {
			out[j] = outcome{msg: "open session: " + err.Error()}
		}
		return
	}
	url := d.base + "/session/" + id + "/compile" + c.path
	for j, si := range chain {
		out[j] = d.post(ctx, url, c.specs[si].text, buf)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, d.base+"/session/"+id, nil)
	if err != nil {
		return
	}
	// A session the DELETE misses is retired by bbd's LRU; no answer
	// depends on it.
	if resp, err := d.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

func (d *loadgen) openSession(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/session", nil)
	if err != nil {
		return "", err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /session: status %d", resp.StatusCode)
	}
	var sr server.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return "", fmt.Errorf("POST /session: %w", err)
	}
	return sr.SessionID, nil
}

// post sends one compile and reads the whole answer. Latency runs from
// sending the request to the answer's last byte.
func (d *loadgen) post(ctx context.Context, url, body string, buf *bytes.Buffer) outcome {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return outcome{msg: err.Error()}
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return outcome{lat: time.Since(t0), msg: err.Error()}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o := outcome{lat: time.Since(t0), status: resp.StatusCode}
	switch {
	case err != nil:
		o.status, o.msg = 0, "read answer: "+err.Error()
	case o.status != http.StatusOK:
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(buf.Bytes(), &e) == nil {
			o.msg = e.Error
		} else {
			o.msg = buf.String()
		}
	default:
		o.cif = hashField(buf.Bytes(), `"cif":"`)
		o.sticks = hashField(buf.Bytes(), `"sticks":"`)
	}
	return o
}

// hashField hashes the raw, still-escaped value of the first string field
// whose `"key":"` prefix is pat, or returns 0 when there is none. Hashing
// the escaped bytes spares the client decoding a ~42 KiB answer.
func hashField(body []byte, pat string) uint64 {
	i := bytes.Index(body, []byte(pat))
	if i < 0 {
		return 0
	}
	start := i + len(pat)
	for j := start; ; {
		k := bytes.IndexByte(body[j:], '"')
		if k < 0 {
			return 0
		}
		end := j + k
		slashes := 0
		for p := end - 1; p >= start && body[p] == '\\'; p-- {
			slashes++
		}
		if slashes%2 == 0 {
			return maphash.Bytes(hashSeed, body[start:end])
		}
		j = end + 1
	}
}

// hashJSON hashes s the way hashField hashes its encoding in an answer:
// bbd's json.Encoder and json.Marshal escape strings identically.
func hashJSON(s string) uint64 {
	b, _ := json.Marshal(s) // a string always marshals
	return maphash.Bytes(hashSeed, b[1:len(b)-1])
}

// prime compiles every hot_cache candidate once through the daemon, then
// resolves the Zipf ranks to the first hotSetSize candidates it accepted,
// so every timed request is a memory-cache hit.
func (c *corpus) prime(ctx context.Context, d *loadgen) error {
	all := &corpus{path: c.path, specs: c.specs, order: seq(len(c.specs))}
	var hot []int
	for i, o := range d.replay(ctx, all) {
		switch o.status {
		case http.StatusOK:
			c.primed++
			if len(hot) < hotSetSize {
				hot = append(hot, i)
			}
		case http.StatusUnprocessableEntity:
		default:
			return fmt.Errorf("priming hot_cache: spec seed %d: status %d: %s", c.specs[i].seed, o.status, o.msg)
		}
	}
	if len(hot) < hotSetSize {
		return fmt.Errorf("priming hot_cache: only %d of %d candidates compiled", len(hot), len(c.specs))
	}
	c.order = make([]int, len(c.ranks))
	for i, r := range c.ranks {
		c.order[i] = hot[r]
	}
	return nil
}

// windowParts splits the timed window into consecutive slices of the
// corpus, with the oracle's compiles for each slice run in between. The
// host's speed drifts over tens of seconds, so spreading one window's
// measurement over the whole run averages more of that drift.
const windowParts = 8

// window is the timed part of a run: the sum of its parts.
type window struct {
	outs                 []outcome
	wall                 time.Duration
	daemonCPU, clientCPU time.Duration
	peakRSSKB            float64
	before, after        map[string]float64
	// oracle is the time spent in the oracle's compiles between parts.
	oracle time.Duration
}

// measure replays the corpus against the daemon part by part, each part
// bracketed by the daemon's CPU time and the client's own, and fills exp
// for each part's specs before the next part starts. The daemon's
// counters bracket the whole window.
func measure(ctx context.Context, d *daemon, c *corpus, exp []expectation) (*window, error) {
	before, err := d.scrape(ctx)
	if err != nil {
		return nil, err
	}
	w := &window{before: before}
	lg := newLoadgen(d.base)
	for p := 0; p < windowParts; p++ {
		part := c.part(p, windowParts)
		cpu0, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		self0 := selfCPU()
		t0 := time.Now()
		w.outs = append(w.outs, lg.replay(ctx, part)...)
		w.wall += time.Since(t0)
		w.clientCPU += selfCPU() - self0
		cpu1, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		w.daemonCPU += cpu1 - cpu0
		t0 = time.Now()
		if err := expect(ctx, part, exp); err != nil {
			return nil, err
		}
		w.oracle += time.Since(t0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if w.after, err = d.scrape(ctx); err != nil {
		return nil, err
	}
	if w.peakRSSKB, err = d.peakRSSKB(); err != nil {
		return nil, err
	}
	return w, nil
}
