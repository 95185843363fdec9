package netrun

// The client-facing lock protocol of lockd: three JSON-over-HTTP calls
// on each node's client address. Acquire long-polls until the named
// lock's vertex is privileged and a capacity slot is free (or the wait
// bound expires), Release returns a granted token, Status snapshots the
// node. Time is rounds throughout — waitRounds bounds the queue wait,
// leaseRound says when an unreleased grant is reclaimed — so a client
// never needs the ring's wall-clock pace to reason about its lease.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// AcquireRequest asks for the named lock.
type AcquireRequest struct {
	// Lock names the lock; ResolveLock maps it to a vertex ("vertex:K"
	// addresses one directly).
	Lock string `json:"lock"`
	// Client names the requester; the gate neither records nor checks it.
	Client string `json:"client,omitempty"`
	// WaitRounds bounds the queue wait (0 = DefaultWaitRounds).
	WaitRounds int `json:"waitRounds,omitempty"`
}

// AcquireReply answers an AcquireRequest.
type AcquireReply struct {
	// Granted reports success; Token is then the release capability.
	Granted bool   `json:"granted"`
	Token   string `json:"token,omitempty"`
	// Vertex is the ring vertex serving the lock, Node the node that owns
	// that vertex's shard.
	Vertex int `json:"vertex"`
	Node   int `json:"node"`
	// Round is the round the reply was formed at; LeaseRound is the round
	// an unreleased grant is reclaimed.
	Round      int64 `json:"round"`
	LeaseRound int64 `json:"leaseRound,omitempty"`
	// Reason explains a refusal: "not-owner" (retry against Node),
	// "timeout" (WaitRounds elapsed), "draining", or a bad lock name.
	Reason string `json:"reason,omitempty"`
}

// ReleaseRequest returns a token.
type ReleaseRequest struct {
	Token string `json:"token"`
}

// ReleaseReply answers a ReleaseRequest. Released is false when the
// token is unknown — including the case where the lease already
// reclaimed it, which a well-behaved client treats as a lost lock, not
// an error.
type ReleaseReply struct {
	Released bool   `json:"released"`
	Round    int64  `json:"round"`
	Reason   string `json:"reason,omitempty"`
}

// StatusReply snapshots one node for operators and the smoke tests.
type StatusReply struct {
	Node     int    `json:"node"`
	Nodes    int    `json:"nodes"`
	Protocol string `json:"protocol"`
	N        int    `json:"n"`
	Round    int64  `json:"round"`
	FP       string `json:"fp"`
	Stalled  bool   `json:"stalled"`
	Draining bool   `json:"draining"`
	Backlog  int    `json:"backlog"`
	Active   int    `json:"active"`
	Grants   int64  `json:"grants"`
	Released int64  `json:"released"`
	// LeaseExpired counts grants reclaimed at their lease horizon.
	LeaseExpired int64 `json:"leaseExpired"`
	// UnsafeGrants counts grants issued while the configuration exposed
	// more privileges than the capacity — the speculation window; the
	// AfterLegit split must stay zero once the ring has stabilized.
	UnsafeGrants          int64 `json:"unsafeGrants"`
	UnsafeGrantsPostLegit int64 `json:"unsafeGrantsPostLegit"`
	// LegitRound is the first round the configuration was legitimate
	// (-1 while converging, or when the lock has no legitimacy probe).
	LegitRound int64 `json:"legitRound"`
}

// Client is a minimal lockd HTTP client for tests, examples and scripts.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient talks to the lockd node at addr (host:port).
func NewClient(addr string) *Client {
	return &Client{base: "http://" + addr, hc: &http.Client{}}
}

// Acquire requests the named lock, long-polling until granted, refused
// or waitRounds elapse.
func (c *Client) Acquire(lock, client string, waitRounds int) (AcquireReply, error) {
	var rep AcquireReply
	err := c.post("/v1/acquire", AcquireRequest{Lock: lock, Client: client, WaitRounds: waitRounds}, &rep)
	return rep, err
}

// Release returns a token.
func (c *Client) Release(token string) (ReleaseReply, error) {
	var rep ReleaseReply
	err := c.post("/v1/release", ReleaseRequest{Token: token}, &rep)
	return rep, err
}

// Status snapshots the node.
func (c *Client) Status() (StatusReply, error) {
	var rep StatusReply
	resp, err := c.hc.Get(c.base + "/v1/status")
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("netrun: status: %s", resp.Status)
	}
	return rep, json.NewDecoder(resp.Body).Decode(&rep)
}

func (c *Client) post(path string, req, rep any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("netrun: %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(rep)
}
