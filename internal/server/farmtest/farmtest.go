// Package farmtest boots a whole bbd farm — N nodes sharing one
// consistent-hash ring, each a front door that compiles the keys it owns
// — inside one test process. Nodes are httptest servers, so the farm
// binds no real ports and dies with the process; the differential
// harness and the fault-injection battery both build on it.
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
	// Workers is the node count (<=0 = 3).
	Workers int
	// Node is the per-node server template. Cache, Peers, SelfURL and
	// PeerTimeout are overwritten per node (each node gets a fresh cache
	// and the farm's ring); everything else is copied as-is.
	Node server.Config
	// PeerTimeout bounds each peer cache fetch (<=0 =
	// cache.DefaultPeerTimeout).
	PeerTimeout time.Duration
	// Configure, when non-nil, runs on node i's config just before
	// server.New — the hook tests use to plant per-node BeforeCompile
	// functions.
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

// Kill severs the node: every open connection is reset (a compile
// forwarded to it fails immediately) and every new request is aborted.
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
}

// Workers returns the nodes, in ring-list order.
func (f *Farm) Workers() []*Node { return f.workers }

// URLs returns every node's base URL — the farm's ring.
func (f *Farm) URLs() []string {
	out := make([]string, len(f.workers))
	for i, n := range f.workers {
		out[i] = n.URL
	}
	return out
}

// Close restores every gate, drains every server (bounded), and closes
// the HTTP fronts.
func (f *Farm) Close() {
	for _, n := range f.workers {
		n.Restore()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range f.workers {
		if n.Server != nil {
			n.Server.Shutdown(ctx)
		}
	}
	for _, n := range f.workers {
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
	nodes := make([]*Node, workers)
	urls := make([]string, workers)
	for i := range nodes {
		g := newGate()
		ts := httptest.NewServer(g)
		nodes[i] = &Node{HTTP: ts, URL: ts.URL, gate: g}
		urls[i] = ts.URL
	}
	f := &Farm{workers: nodes}
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
