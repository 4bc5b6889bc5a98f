package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"
)

// The farm protocol has two halves. GET /cache/{key} is the serving side
// of the shard lookup (the client side lives in cache.PeerTier): it
// answers a peer from this node's local layers only — a GET that misses
// answers 404 rather than asking the ring, because this node is the key's
// owner. After that clean 404 the asking node forwards the compile itself
// to the owner as POST /compile with hopHeader set, and a request that
// carries hopHeader is compiled where it lands. A node answering either
// half never passes the request on, so no request can bounce around the
// ring.

// hopHeader marks a compile forwarded to its key's owner.
const hopHeader = "X-Bbd-Forwarded"

// forwardClient carries forwarded compiles. It has no client timeout: a
// forward is bounded by the request's context, which carries the compile
// deadline.
var forwardClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: 16,
	IdleConnTimeout:     30 * time.Second,
}}

// validShardKey mirrors the disk layer's key check: cache keys are
// lowercase hex SHA-256, and anything else is rejected before it can
// reach a lookup.
func validShardKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Server) handleCacheShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET a cache shard entry")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/cache/")
	if !validShardKey(key) {
		httpError(w, http.StatusBadRequest, "cache key must be 64 lowercase hex digits")
		return
	}
	res, ok := s.cache.GetLocal(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no cached result for %s", key)
		return
	}
	s.metrics.shardServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// forward sends the call's cold compile to the key's owner, which has
// just answered a clean miss for it, and buffers the whole reply: the
// original query, the traceparent (the owner's compile becomes a child
// span of this node's root) and hopHeader go along. ok is false when the
// call compiles locally instead: this node owns the key, the request was
// itself forwarded, or the owner failed — its lookup failed, the forward
// hit a transport error, or it answered 5xx. An owner failure counts as a
// local fallback unless the call's own context ended, which is not the
// owner's fault. A reply is relayed verbatim: a CompileResponse, or a
// compile error the owner would give any node.
func (c *call) forward(body []byte) (status int, data []byte, ok bool) {
	if c.owner == "" || c.r.Header.Get(hopHeader) != "" {
		return 0, nil, false
	}
	err := c.ownerErr
	if err == nil {
		if status, data, err = c.postOwner(body); err == nil && status < 500 {
			c.s.metrics.ownerForwards.Add(1)
			return status, data, true
		}
	}
	switch {
	case c.ctx.Err() != nil:
		return 0, nil, false
	case err != nil:
		c.log.Warn("owner unreachable, compiling locally", "owner", c.owner, "err", err)
	default:
		c.log.Warn("owner refused, compiling locally", "owner", c.owner, "status", status)
	}
	c.s.metrics.ownerFallbacks.Add(1)
	return 0, nil, false
}

// postOwner POSTs the spec to the owner's /compile under the call's
// context and reads the whole reply.
func (c *call) postOwner(body []byte) (int, []byte, error) {
	url := c.owner + "/compile"
	if c.r.URL.RawQuery != "" {
		url += "?" + c.r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(hopHeader, "1")
	if c.link.Valid() {
		req.Header.Set("traceparent", c.link.Traceparent())
	}
	resp, err := forwardClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}
