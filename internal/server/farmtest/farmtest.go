// Package farmtest boots a whole bbd farm — N workers sharing a
// consistent-hash cache ring, optionally fronted by a coordinator — inside
// one test process. Nodes are httptest servers, so the farm binds no real
// ports and dies with the process; the differential harness and the
// fault-injection battery both build on it.
//
// Every node sits behind a gate that the battery flips to simulate the
// farm's failure modes: Kill severs the node mid-flight (open connections
// reset, new ones refused), Partition makes it unreachable without
// touching its in-flight work, Slow delays every response, and Restore
// heals it. The gates fail at the transport, the same place real
// failures happen, so the code under test sees connection resets and
// timeouts — not tidy error returns.
//
// The package takes no *testing.T: New returns an error and the caller
// decides how to report it.
package farmtest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"bristleblocks/internal/cache"
	"bristleblocks/internal/server"
)

// Config shapes the farm.
type Config struct {
	// Workers is the worker-node count (<=0 = 3).
	Workers int
	// Coordinator adds one more node in coordinator mode; requests sent to
	// Farm.Coordinator() route cold compiles across the workers.
	Coordinator bool
	// Node is the per-node server template. Cache, Peers, SelfURL, and
	// Coordinator are overwritten per node (each node gets a fresh cache
	// and the farm's ring); everything else is copied as-is.
	Node server.Config
	// PeerTimeout bounds peer fetch/put and coordinator load polls
	// (<=0 = cache.DefaultPeerTimeout).
	PeerTimeout time.Duration
	// Configure, when non-nil, runs on each node's config (workers first,
	// then the coordinator as index len(workers)) just before server.New —
	// the hook tests use to plant per-node BeforeCompile functions.
	Configure func(i int, cfg *server.Config)
}

// Node is one farm member: the server, its HTTP front, and the fault gate
// between them.
type Node struct {
	Server *server.Server
	HTTP   *httptest.Server
	URL    string
	gate   *gate
}

// Kill severs the node: every open connection is reset (a coordinator
// forward in flight fails immediately) and every new request is aborted.
// The server itself keeps running — like a machine yanked off the
// network, not a clean shutdown.
func (n *Node) Kill() {
	n.gate.setMode(gateKilled)
	n.HTTP.CloseClientConnections()
}

// Partition makes the node unreachable for new requests while leaving
// open connections alone — an asymmetric network cut.
func (n *Node) Partition() { n.gate.setMode(gateKilled) }

// Slow delays every response by d — the sick-but-alive peer whose
// timeout handling the battery checks.
func (n *Node) Slow(d time.Duration) { n.gate.setDelay(d) }

// Restore heals the node: requests flow again, undelayed.
func (n *Node) Restore() {
	n.gate.setMode(gateOK)
	n.gate.setDelay(0)
}

// Farm is the running fixture.
type Farm struct {
	workers []*Node
	coord   *Node // nil without Config.Coordinator
}

// Workers returns the worker nodes.
func (f *Farm) Workers() []*Node { return f.workers }

// Coordinator returns the coordinator node (nil when the farm runs
// without one).
func (f *Farm) Coordinator() *Node { return f.coord }

// Nodes returns every node, workers first.
func (f *Farm) Nodes() []*Node {
	out := append([]*Node{}, f.workers...)
	if f.coord != nil {
		out = append(out, f.coord)
	}
	return out
}

// URLs returns every node's base URL, workers first — the farm's ring.
func (f *Farm) URLs() []string {
	nodes := f.Nodes()
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.URL
	}
	return out
}

// Close restores every gate, drains every server (bounded), and closes
// the HTTP fronts.
func (f *Farm) Close() {
	for _, n := range f.Nodes() {
		n.Restore()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range f.Nodes() {
		if n.Server != nil {
			n.Server.Shutdown(ctx)
		}
	}
	for _, n := range f.Nodes() {
		n.HTTP.Close()
	}
}

// New boots the farm. The HTTP fronts come up first (their URLs are the
// ring's node names, needed before any server can be built), then each
// server is created with the full ring and plugged into its gate.
func New(cfg Config) (*Farm, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 3
	}
	total := workers
	if cfg.Coordinator {
		total++
	}
	nodes := make([]*Node, total)
	urls := make([]string, total)
	for i := range nodes {
		g := newGate()
		ts := httptest.NewServer(g)
		nodes[i] = &Node{HTTP: ts, URL: ts.URL, gate: g}
		urls[i] = ts.URL
	}
	f := &Farm{workers: nodes[:workers]}
	if cfg.Coordinator {
		f.coord = nodes[workers]
	}
	for i, node := range nodes {
		sc := cfg.Node
		fresh, err := cache.New(0, "")
		if err != nil {
			f.Close()
			return nil, err
		}
		sc.Cache = fresh
		sc.Peers = urls
		sc.SelfURL = urls[i]
		sc.PeerTimeout = cfg.PeerTimeout
		sc.Coordinator = cfg.Coordinator && i == workers
		if cfg.Configure != nil {
			cfg.Configure(i, &sc)
		}
		srv, err := server.New(sc)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		node.Server = srv
		node.gate.set(srv.Handler())
	}
	return f, nil
}

// gate sits between a node's httptest listener and its real handler,
// injecting the battery's faults at the transport layer.
type gate struct {
	mu    sync.RWMutex
	h     http.Handler
	mode  gateMode
	delay time.Duration
}

type gateMode int

const (
	gateOK gateMode = iota
	// gateKilled aborts every request without writing a response: the
	// client sees a connection reset, exactly what a dead or partitioned
	// machine produces.
	gateKilled
)

func newGate() *gate { return &gate{} }

func (g *gate) set(h http.Handler) {
	g.mu.Lock()
	g.h = h
	g.mu.Unlock()
}

func (g *gate) setMode(m gateMode) {
	g.mu.Lock()
	g.mode = m
	g.mu.Unlock()
}

func (g *gate) setDelay(d time.Duration) {
	g.mu.Lock()
	g.delay = d
	g.mu.Unlock()
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.RLock()
	h, mode, delay := g.h, g.mode, g.delay
	g.mu.RUnlock()
	if mode == gateKilled || h == nil {
		panic(http.ErrAbortHandler)
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			// The client gave up (its timeout fired); no point finishing
			// the sleep and writing into a closed connection.
			panic(http.ErrAbortHandler)
		}
	}
	h.ServeHTTP(w, r)
}
