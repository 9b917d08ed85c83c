package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"focus/internal/fleet"
	"focus/internal/serve"
)

// member is one focusd member served in this process on a loopback
// listener: durable when dir is set, in-memory otherwise.
type member struct {
	dir  string
	addr string
	reg  *serve.Registry
	srv  *http.Server
	done chan struct{} // closed when srv.Serve returns
}

// start opens the registry (reopening dir's data when durable) and serves
// it on addr ("127.0.0.1:0" picks a port).
func (m *member) start(addr string, tr *Tracer) error {
	if m.dir == "" {
		m.reg = serve.NewRegistry()
	} else {
		var warnings []error
		var err error
		tr.Time("serve.open", func() { m.reg, warnings, err = serve.OpenRegistry(m.dir, 0) })
		if err != nil {
			return fmt.Errorf("opening registry in %s: %w", m.dir, err)
		}
		if len(warnings) > 0 {
			return fmt.Errorf("opening registry in %s: %w", m.dir, errors.Join(warnings...))
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		m.reg.Close()
		return err
	}
	m.addr = ln.Addr().String()
	m.srv = &http.Server{Handler: m.reg.Handler()}
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		m.srv.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	return nil
}

// stop closes the listener and every connection, waits for the server
// goroutine, and closes the registry (flushing a durable one's logs).
func (m *member) stop() {
	m.srv.Close()
	<-m.done
	m.reg.Close()
}

// fleetHarness is n members behind an in-process fleet.Router, all on
// loopback listeners, driven over real HTTP like a focusrouter fleet.
type fleetHarness struct {
	members   []*member
	router    *fleet.Router
	routerSrv *http.Server
	routerEnd chan struct{}
	base      string
	client    *http.Client // the load generator's: at most conns connections
	direct    *http.Client // member-direct calls of the layer probes
	peers     *http.Transport
}

// bootFleet starts n members (durable under dirs[i] when dirs is non-nil)
// and a router over them. The load generator's client holds at most conns
// connections.
func bootFleet(n int, dirs []string, conns int, tr *Tracer) (*fleetHarness, error) {
	h := &fleetHarness{
		peers: &http.Transport{MaxIdleConnsPerHost: 8},
	}
	h.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   60 * time.Second,
	}
	h.direct = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		m := &member{}
		if dirs != nil {
			m.dir = dirs[i]
		}
		if err := m.start("127.0.0.1:0", tr); err != nil {
			h.close()
			return nil, err
		}
		h.members = append(h.members, m)
		addrs[i] = m.addr
	}
	h.router = fleet.NewRouter(addrs, 0, &http.Client{Transport: h.peers, Timeout: 60 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, err
	}
	h.base = "http://" + ln.Addr().String()
	h.routerSrv = &http.Server{Handler: h.router.Handler()}
	h.routerEnd = make(chan struct{})
	go func() {
		defer close(h.routerEnd)
		h.routerSrv.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	return h, nil
}

// close stops the router and every member and releases idle connections.
func (h *fleetHarness) close() {
	if h.routerSrv != nil {
		h.routerSrv.Close()
		<-h.routerEnd
	}
	for _, m := range h.members {
		m.stop()
	}
	h.client.CloseIdleConnections()
	h.direct.CloseIdleConnections()
	h.peers.CloseIdleConnections()
}

// reopen restarts every stopped member over its data directory on its
// old address, one after another as in a rolling restart: the recovery
// time is then the members' replay work added up, not the slowest of
// three replays racing for two CPUs.
func (h *fleetHarness) reopen(tr *Tracer) error {
	for _, m := range h.members {
		if err := m.start(m.addr, tr); err != nil {
			return err
		}
	}
	return nil
}

// send performs r against base with client.
func send(client *http.Client, base string, r *request) (int, []byte, error) {
	method := http.MethodGet
	var body io.Reader
	if r.body != nil {
		method = http.MethodPost
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(method, base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// callOK performs r against base with client and requires a 2xx answer.
func callOK(client *http.Client, base string, r *request) ([]byte, error) {
	status, body, err := send(client, base, r)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", r.path, status, bytes.TrimSpace(body))
	}
	return body, nil
}

// call sends r through the router and requires a 2xx answer.
func (h *fleetHarness) call(r *request) ([]byte, error) { return callOK(h.client, h.base, r) }

// routed is the load generator's sendFunc: every request goes through the
// router.
func (h *fleetHarness) routed(r *request) (int, []byte, error) { return send(h.client, h.base, r) }
