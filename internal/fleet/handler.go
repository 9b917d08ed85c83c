package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// errorResponse mirrors the member-side error body, so clients see one
// error shape whether the router or a shard answered.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the router's HTTP API. It mirrors the focusd surface —
// a client pointed at the router instead of a single node keeps working —
// and adds the fleet administration endpoints:
//
//	GET    /healthz                     router liveness + member count
//	GET    /v1/summary                  fleet-merged drift summary (ShardSummary shape)
//	GET    /v1/sessions                 merged session list (scatter-gather)
//	POST   /v1/sessions                 create, routed to the ring owner of the name
//	*      /v1/sessions/{name}[/...]    proxied verbatim to the ring owner (export and import included)
//	GET    /v1/fleet/summary            merged summary + per-member breakdown
//	GET    /v1/fleet/members            member health + session counts
//	POST   /v1/fleet/members            join a member ({"addr"} body) and rebalance onto it
//	DELETE /v1/fleet/members/{addr}     retire a member, migrating its sessions off
//
// Member responses are forwarded verbatim (status, body, Retry-After); a
// member the router cannot reach maps to 502, an empty ring to 503.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		rt.mu.Lock()
		n := rt.ring.Len()
		rt.mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "members": n})
	})
	mux.HandleFunc("GET /v1/summary", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, rt.Summary().Fleet)
	})
	mux.HandleFunc("GET /v1/fleet/summary", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, rt.Summary())
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, rt.List())
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, req *http.Request) {
		// The create body names the session, and the name picks the shard:
		// buffer the body, peek the name, forward the original bytes.
		body, name, err := peekName(w, req)
		if err != nil {
			writeRouteError(w, err)
			return
		}
		rt.proxySession(w, req, name, body)
	})
	proxyByName := func(w http.ResponseWriter, req *http.Request) {
		rt.proxySession(w, req, req.PathValue("name"), nil)
	}
	mux.HandleFunc("GET /v1/sessions/{name}", proxyByName)
	mux.HandleFunc("DELETE /v1/sessions/{name}", proxyByName)
	mux.HandleFunc("POST /v1/sessions/{name}/batches", proxyByName)
	mux.HandleFunc("GET /v1/sessions/{name}/reports", proxyByName)
	mux.HandleFunc("POST /v1/sessions/{name}/export", proxyByName)
	mux.HandleFunc("POST /v1/sessions/{name}/import", proxyByName)
	mux.HandleFunc("POST /v1/sessions/{name}/resume", proxyByName)
	mux.HandleFunc("GET /v1/fleet/members", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"members": rt.MemberStatuses()})
	})
	mux.HandleFunc("POST /v1/fleet/members", func(w http.ResponseWriter, req *http.Request) {
		var body struct {
			Addr string `json:"addr"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			writeRouteError(w, &routeError{code: http.StatusBadRequest, msg: fmt.Sprintf("decoding request body: %v", err)})
			return
		}
		if body.Addr == "" {
			writeRouteError(w, &routeError{code: http.StatusBadRequest, msg: "addr required"})
			return
		}
		moved, err := rt.AddMember(body.Addr)
		if err != nil {
			writeRouteError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]any{"addr": body.Addr, "migrated": moved})
	})
	mux.HandleFunc("DELETE /v1/fleet/members/{addr}", func(w http.ResponseWriter, req *http.Request) {
		addr := req.PathValue("addr")
		moved, err := rt.RemoveMember(addr)
		if err != nil {
			writeRouteError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"addr": addr, "migrated": moved})
	})
	return mux
}

// peekName buffers a create request's body and extracts the session name
// from it; the buffered bytes are returned for forwarding.
func peekName(w http.ResponseWriter, req *http.Request) ([]byte, string, error) {
	doc, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, "", &routeError{code: http.StatusRequestEntityTooLarge, msg: err.Error()}
		}
		return nil, "", &routeError{code: http.StatusBadRequest, msg: fmt.Sprintf("reading request body: %v", err)}
	}
	var cfg struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(doc, &cfg); err != nil {
		return nil, "", &routeError{code: http.StatusBadRequest, msg: fmt.Sprintf("decoding request body: %v", err)}
	}
	if cfg.Name == "" {
		return nil, "", &routeError{code: http.StatusBadRequest, msg: "name required"}
	}
	return doc, cfg.Name, nil
}

// proxySession forwards the request to the ring owner of name. With body
// nil the incoming body streams through unbuffered (the name came from the
// path); otherwise the buffered bytes are sent. The member's response —
// status, body, Content-Type, Retry-After — is relayed verbatim, so a
// drain 503 reaches the client with its Retry-After intact.
func (rt *Router) proxySession(w http.ResponseWriter, req *http.Request, name string, body []byte) {
	m, err := rt.sessionMember(req.Context(), name)
	if err != nil {
		writeRouteError(w, err)
		return
	}
	var rd io.Reader = req.Body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	u := m.Base() + req.URL.Path
	if req.URL.RawQuery != "" {
		u += "?" + req.URL.RawQuery
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, u, rd)
	if err != nil {
		writeRouteError(w, fmt.Errorf("building member request: %w", err))
		return
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	resp, err := rt.client.Do(out)
	if err != nil {
		writeRouteError(w, &routeError{code: http.StatusBadGateway, msg: fmt.Sprintf("member %s: %v", m.Addr(), err)})
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck
}

// writeRouteError renders a router-originated error; member errors from
// Migrate/rebalance default to 502 (the fleet, not the client, is at
// fault), everything unclassified to 500.
func writeRouteError(w http.ResponseWriter, err error) {
	var re *routeError
	if errors.As(err, &re) {
		writeJSON(w, re.code, errorResponse{Error: re.msg})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
}

// writeJSON renders v with the given status; encode errors past the status
// line are unreportable and dropped.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
