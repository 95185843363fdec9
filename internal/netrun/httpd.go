package netrun

// The client HTTP server of one node: acquire (long-poll), release and
// status over JSON. Handlers touch only the gate's mutex-guarded queue
// state and the node's published atomics — never the replica — so the
// round loop stays single-threaded over its own data. This file owns
// the server goroutine and the request-context waits; the speclint
// policy exempts it alongside transport.go (the runtime's wall-clock
// and goroutine boundary).

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
)

// httpServer serves one node's client API.
type httpServer struct {
	nd  *Node
	ln  net.Listener
	srv *http.Server
}

// startHTTP binds addr and serves the client API in the background.
func startHTTP(nd *Node, addr string) (*httpServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netrun: node %d client API: %w", nd.id, err)
	}
	hs := &httpServer{nd: nd, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/acquire", hs.handleAcquire)
	mux.HandleFunc("POST /v1/release", hs.handleRelease)
	mux.HandleFunc("GET /v1/status", hs.handleStatus)
	hs.srv = &http.Server{Handler: mux}
	go hs.srv.Serve(ln)
	return hs, nil
}

func (hs *httpServer) addr() string { return hs.ln.Addr().String() }

func (hs *httpServer) close() { hs.srv.Close() }

// handleAcquire parks the request on the gate and long-polls: the reply
// arrives when a round grants it, the wait bound expires, the node
// drains, or the client hangs up (which cancels the waiter so it cannot
// be granted into the void).
func (hs *httpServer) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req AcquireRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rep, wt := hs.nd.core.gate.acquire(req)
	if wt == nil {
		writeJSON(w, rep)
		return
	}
	select {
	case rep = <-wt.ch:
		writeJSON(w, rep)
	case <-r.Context().Done():
		hs.nd.core.gate.cancel(wt)
	}
}

func (hs *httpServer) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, hs.nd.core.gate.release(req))
}

func (hs *httpServer) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, hs.nd.Status())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
