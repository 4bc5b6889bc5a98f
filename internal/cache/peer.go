package cache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// The peer tier makes the content-addressed cache horizontal: every key
// has exactly one owning node on the consistent-hash ring, and a node
// that misses locally asks the owner over HTTP before compiling. The
// owner compiles every cold key it is sent (see internal/server), so it
// holds every result the farm compiled and one verb serves the protocol:
//
//	GET /cache/{key}  -> 200 + the cache.Result JSON, or 404
//
// Failure is always degradation, never an error: a dead, slow, or
// partitioned peer means the local node compiles and a counter
// increments. Every fetch carries a bounded timeout so a sick peer costs
// at most PeerTimeout, not a hung request.

// DefaultPeerTimeout bounds one peer fetch when the caller passes no
// budget. Peers are LAN neighbors serving memory reads; anything
// slower than this is cheaper to recompile than to wait for.
const DefaultPeerTimeout = 150 * time.Millisecond

// maxPeerResultBytes bounds a fetched result's JSON; a Result is a mask
// set plus text representations, far under this.
const maxPeerResultBytes = 256 << 20

// PeerCounters is a snapshot of the peer tier's activity.
type PeerCounters struct {
	// Fetches counts owner lookups sent to other nodes; Hits/Misses split
	// their outcomes, Errors and Timeouts the failures (a timeout is not
	// double-counted as an error).
	Fetches, Hits, Misses int64
	Errors, Timeouts      int64
	// Nodes is the ring size, self included.
	Nodes int
}

// PeerTier is one node's view of the farm's shared cache shard ring.
// All methods are safe for concurrent use.
type PeerTier struct {
	ring    *Ring
	self    string
	client  *http.Client
	timeout time.Duration

	fetches, hits, misses atomic.Int64
	errs, timeouts        atomic.Int64
}

// NewPeerTier builds the tier from the farm's full peer list (self
// included — every node must agree on the ring). self must appear in
// peers; timeout <= 0 selects DefaultPeerTimeout.
func NewPeerTier(peers []string, self string, timeout time.Duration) (*PeerTier, error) {
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	ring := NewRing(peers)
	found := false
	for _, n := range ring.Nodes() {
		if n == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("peer tier: self %q is not in the peer list %v", self, ring.Nodes())
	}
	return &PeerTier{
		ring:    ring,
		self:    self,
		timeout: timeout,
		client: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 4,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}, nil
}

// Fetch asks the key's owning peer for a result. owner is that peer, ""
// when this node owns the key itself (the local layers were already
// consulted). A clean miss returns no result and no error: the owner is
// the node to compile the key. err reports a failed fetch — dead, slow or
// corrupt peer — after which the caller compiles locally.
func (p *PeerTier) Fetch(ctx context.Context, key string) (res *Result, owner string, err error) {
	owner = p.ring.Owner(key)
	if owner == "" || owner == p.self {
		return nil, "", nil
	}
	p.fetches.Add(1)
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/cache/"+key, nil)
	if err != nil {
		p.errs.Add(1)
		return nil, owner, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, owner, p.countFailure(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		p.misses.Add(1)
		return nil, owner, nil
	default:
		p.errs.Add(1)
		return nil, owner, fmt.Errorf("peer %s answered %s", owner, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerResultBytes))
	if err != nil {
		return nil, owner, p.countFailure(err)
	}
	res = new(Result)
	if err := json.Unmarshal(data, res); err != nil || res.Key != key {
		// A peer serving bytes that don't parse — or a result under the
		// wrong key — is corruption, and corruption degrades like death.
		p.errs.Add(1)
		return nil, owner, fmt.Errorf("peer %s served a corrupt result", owner)
	}
	p.hits.Add(1)
	return res, owner, nil
}

// countFailure classifies one failed fetch and returns its error:
// deadline-shaped failures land in Timeouts, everything else (refused,
// reset, DNS, bad bytes) in Errors.
func (p *PeerTier) countFailure(err error) error {
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) ||
		(errors.As(err, &ne) && ne.Timeout()) ||
		strings.Contains(err.Error(), "Client.Timeout") {
		p.timeouts.Add(1)
		return err
	}
	p.errs.Add(1)
	return err
}

// Counters snapshots the tier's activity.
func (p *PeerTier) Counters() PeerCounters {
	return PeerCounters{
		Fetches:  p.fetches.Load(),
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Errors:   p.errs.Load(),
		Timeouts: p.timeouts.Load(),
		Nodes:    len(p.ring.Nodes()),
	}
}
