package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"

	"repro/internal/cluster"
)

// ForwardHeader marks a submission that was already routed once. A
// request carrying it always executes locally — forwarding is single
// hop, so two nodes with (transiently) divergent liveness views can
// never bounce a job between each other.
const ForwardHeader = "X-Icid-Forwarded"

// nodeName is this node's advertised cluster address, or "" standalone.
func (s *Server) nodeName() string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.Self()
}

// routeRemote decides where a submission runs. It returns true when the
// request was proxied to its owning peer and the response has been
// written, or when the client hung up during the hop; false means
// "execute locally" — because clustering is off, this node owns the
// key, the request already forwarded once, or the owner is down
// (local-execution fallback, counted).
func (s *Server) routeRemote(w http.ResponseWriter, r *http.Request, key string, body []byte, path string) bool {
	c := s.cluster
	if c == nil {
		return false
	}
	if r.Header.Get(ForwardHeader) != "" {
		s.met.forwardedIn.Add(1)
		return false
	}
	owner, self := c.OwnerOf(key)
	if self {
		return false
	}
	if !c.Alive(owner) {
		s.met.forwardFallbacks.Add(1)
		return false
	}
	switch err := s.proxy(w, r, owner, path, body); {
	case err == nil:
		s.met.forwardedOut.Add(1)
		return true
	case r.Context().Err() != nil:
		// The client hung up during the hop: the owner is not at fault,
		// and nobody is left to run the submission for.
		return true
	default:
		// Transport failure: the peer is marked down (so the very next
		// submission skips it) and this one runs here.
		c.ReportFailure(owner, err)
		s.met.forwardFallbacks.Add(1)
		return false
	}
}

// proxy replays the raw submission body against the owning peer and
// copies its response through verbatim — status, content type, body —
// so wait-mode semantics, NDJSON framing, and error shapes survive the
// hop. It returns an error only when no response arrived: the peer is
// unreachable, or the client's request context ended. Any HTTP response
// from the peer, success or failure, passes through.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, owner, path string, body []byte) error {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, cluster.BaseURL(owner)+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, s.nodeName())
	resp, err := s.forward.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return nil
}

// batchKey is the routing key of a whole batch: the hash of every
// member's canonical identity in expansion order. The batch routes as
// one unit — its members share a pool, so splitting them across nodes
// is not meaningful — which means a member's result may land on a
// different node's store than the same model submitted alone would
// (see docs/api.md for the consistency caveat).
func batchKey(identities []string) string {
	h := sha256.New()
	for _, id := range identities {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return "batch:" + hex.EncodeToString(h.Sum(nil))
}

// handleCluster is GET /cluster: this node's routing and liveness view.
func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"enabled": false,
			"members": []string{},
		})
		return
	}
	st := s.cluster.Status()
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled": true,
		"self":    st.Self,
		"vnodes":  st.VNodes,
		"members": st.Members,
		"peers":   st.Peers,
	})
}
