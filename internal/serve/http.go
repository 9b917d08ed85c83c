package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// maxBodyBytes bounds request bodies: batches stream row-by-row into the
// monitor anyway, so an unbounded body would only buy an allocation bomb.
const maxBodyBytes = 64 << 20

// statusError carries an HTTP status through the registry/session layer.
// retryAfter, when positive, is rendered as a Retry-After header — the
// contract for 503s during drains: the condition is transient, come back.
type statusError struct {
	code       int
	msg        string
	retryAfter int // seconds
}

func (e *statusError) Error() string { return e.msg }

// badRequest wraps a client mistake as a 400.
func badRequest(msg string) error { return &statusError{code: http.StatusBadRequest, msg: msg} }

// drainRetrySeconds is the Retry-After value for drain 503s: drains are
// short (a shutdown grace period or a single session migration), so
// clients should retry almost immediately.
const drainRetrySeconds = 1

// drainingError is the 503 a draining session or registry answers with.
func drainingError(msg string) error {
	return &statusError{code: http.StatusServiceUnavailable, msg: msg, retryAfter: drainRetrySeconds}
}

// Handler returns the HTTP API of the registry:
//
//	GET    /healthz                     liveness probe (503 + Retry-After while draining)
//	GET    /v1/summary                  mergeable shard drift summary (ShardSummary)
//	GET    /v1/sessions                 list session states (streamed)
//	POST   /v1/sessions                 create a session (SessionConfig body)
//	GET    /v1/sessions/{name}          session state snapshot
//	DELETE /v1/sessions/{name}          delete a session
//	POST   /v1/sessions/{name}/batches  feed one batch ({"epoch"?, "rows"} body)
//	GET    /v1/sessions/{name}/reports  recent reports + alert count
//	POST   /v1/sessions/{name}/export   seal + return the session image (?drain=1 stops intake)
//	POST   /v1/sessions/{name}/import   register the session from an image body
//	POST   /v1/sessions/{name}/resume   lift a migration drain
//
// Malformed configuration, schemas, batches and images map to 400, unknown
// sessions to 404, duplicate names to 409, drains to 503 with Retry-After.
// A session image is binary (application/octet-stream, see persist.go);
// every other response body is JSON.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		if r.Draining() {
			writeError(w, drainingError("draining for shutdown"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/summary", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Summary())
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, req *http.Request) {
		// The body is streamed session by session: nothing is materialized
		// under the registry lock, so a router scatter-gathering a large
		// shard cannot stall creates and deletes. Mid-stream encode errors
		// are unreportable (the status line is already out), like writeJSON.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = r.WriteList(w)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, req *http.Request) {
		var cfg SessionConfig
		if err := decodeBody(w, req, &cfg); err != nil {
			writeError(w, err)
			return
		}
		s, err := r.Create(cfg)
		if err != nil {
			writeError(w, err)
			return
		}
		st, err := s.State()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /v1/sessions/{name}", func(w http.ResponseWriter, req *http.Request) {
		s, err := r.session(req)
		if err != nil {
			writeError(w, err)
			return
		}
		st, err := s.State()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/sessions/{name}", func(w http.ResponseWriter, req *http.Request) {
		if !r.Delete(req.PathValue("name")) {
			writeError(w, notFound(req.PathValue("name")))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/sessions/{name}/batches", func(w http.ResponseWriter, req *http.Request) {
		s, err := r.session(req)
		if err != nil {
			writeError(w, err)
			return
		}
		var fr feedRequest
		if err := decodeBody(w, req, &fr); err != nil {
			writeError(w, err)
			return
		}
		if len(fr.Rows) == 0 {
			writeError(w, badRequest("rows required"))
			return
		}
		rep, err := s.Feed(fr.Epoch, fr.Rows)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, feedResponse{Report: rep})
	})
	mux.HandleFunc("GET /v1/sessions/{name}/reports", func(w http.ResponseWriter, req *http.Request) {
		s, err := r.session(req)
		if err != nil {
			writeError(w, err)
			return
		}
		reports, alerts, err := s.Reports()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, reportsResponse{Reports: reports, Alerts: alerts})
	})
	mux.HandleFunc("POST /v1/sessions/{name}/export", func(w http.ResponseWriter, req *http.Request) {
		s, err := r.session(req)
		if err != nil {
			writeError(w, err)
			return
		}
		img, err := s.Export(req.URL.Query().Get("drain") == "1")
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		w.Write(img) //nolint:errcheck
	})
	mux.HandleFunc("POST /v1/sessions/{name}/import", func(w http.ResponseWriter, req *http.Request) {
		img, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
		if err != nil {
			writeError(w, bodyError(err))
			return
		}
		s, err := r.Import(req.PathValue("name"), img)
		if err != nil {
			writeError(w, err)
			return
		}
		st, err := s.State()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("POST /v1/sessions/{name}/resume", func(w http.ResponseWriter, req *http.Request) {
		s, err := r.session(req)
		if err != nil {
			writeError(w, err)
			return
		}
		if err := s.Resume(); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// session resolves the {name} path value.
func (r *Registry) session(req *http.Request) (*Session, error) {
	name := req.PathValue("name")
	s, ok := r.Get(name)
	if !ok {
		return nil, notFound(name)
	}
	return s, nil
}

func notFound(name string) error {
	return &statusError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown session %q", name)}
}

// decodeBody strictly decodes a JSON request body into dst: unknown fields
// and trailing garbage are client errors, and bodies are capped at
// maxBodyBytes.
func decodeBody(w http.ResponseWriter, req *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return bodyError(err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON body")
	}
	return nil
}

// bodyError maps a failed read of a request body: 413 past maxBodyBytes,
// else 400.
func bodyError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &statusError{code: http.StatusRequestEntityTooLarge, msg: err.Error()}
	}
	return badRequest(fmt.Sprintf("decoding request body: %v", err))
}

// writeError renders err as a JSON error response, defaulting unclassified
// errors to 500.
func writeError(w http.ResponseWriter, err error) {
	var se *statusError
	if errors.As(err, &se) {
		if se.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(se.retryAfter))
		}
		writeJSON(w, se.code, errorResponse{Error: se.msg})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
}

// writeJSON renders v with the given status. Encode errors are
// unreportable — the status line is already out — so they are dropped.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
