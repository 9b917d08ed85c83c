package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"focus/internal/serve"
)

// Member is the HTTP client for one focusd node. It is stateless (the
// address and the shared client never change after construction), so it is
// safe for concurrent use by the router's data path, scatter-gather fans
// and migrations alike.
type Member struct {
	addr   string // host:port, the ring key
	base   string // http://host:port
	client *http.Client
}

// NewMember wraps one focusd node address ("host:port" or a full
// "http://host:port" base URL). client may be shared across members; nil
// uses http.DefaultClient.
func NewMember(addr string, client *http.Client) *Member {
	if client == nil {
		client = http.DefaultClient
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Member{addr: strings.TrimPrefix(strings.TrimPrefix(addr, "http://"), "https://"), base: base, client: client}
}

// Addr returns the member's ring key (host:port).
func (m *Member) Addr() string { return m.addr }

// Base returns the member's base URL.
func (m *Member) Base() string { return m.base }

// Healthy probes the member's health endpoint: true only on a 200 — a
// draining member (503 + Retry-After) counts as not accepting new work.
func (m *Member) Healthy() bool {
	resp, err := m.client.Get(m.base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp.StatusCode == http.StatusOK
}

// memberError wraps a member-side failure with the member address; the
// router maps transport failures to 502.
func (m *Member) errorf(format string, args ...any) error {
	return fmt.Errorf("member %s: %s", m.addr, fmt.Sprintf(format, args...))
}

// getJSON issues a GET and decodes a 200 JSON body into out.
func (m *Member) getJSON(path string, out any) error {
	resp, err := m.client.Get(m.base + path)
	if err != nil {
		return m.errorf("%v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return m.errorf("GET %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return m.errorf("GET %s: decoding body: %v", path, err)
	}
	return nil
}

// Summary fetches the member's mergeable shard summary.
func (m *Member) Summary() (serve.ShardSummary, error) {
	var sum serve.ShardSummary
	err := m.getJSON("/v1/summary", &sum)
	return sum, err
}

// List fetches the member's session states, already sorted by name.
func (m *Member) List() ([]json.RawMessage, error) {
	var list struct {
		Sessions []json.RawMessage `json:"sessions"`
	}
	if err := m.getJSON("/v1/sessions", &list); err != nil {
		return nil, err
	}
	return list.Sessions, nil
}

// SessionNames fetches the member's session names, sorted.
func (m *Member) SessionNames() ([]string, error) {
	states, err := m.List()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(states))
	for _, raw := range states {
		var st struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, m.errorf("decoding session state: %v", err)
		}
		names = append(names, st.Name)
	}
	return names, nil
}

// Export seals the named session on the member and returns its opaque
// image; with drain set the session stops accepting feeds until resumed,
// imported elsewhere and deleted, or the member restarts.
func (m *Member) Export(name string, drain bool) ([]byte, error) {
	path := "/v1/sessions/" + url.PathEscape(name) + "/export"
	if drain {
		path += "?drain=1"
	}
	resp, err := m.client.Post(m.base+path, "application/json", nil)
	if err != nil {
		return nil, m.errorf("%v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, m.errorf("export %s: reading body: %v", name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, m.errorf("export %s: status %d: %s", name, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// Import registers the named session on the member from the image another
// member exported. A member that cannot read the image refuses it with a
// 4xx, returned as an error.
func (m *Member) Import(name string, image []byte) error {
	resp, err := m.client.Post(m.base+"/v1/sessions/"+url.PathEscape(name)+"/import", "application/octet-stream", bytes.NewReader(image))
	if err != nil {
		return m.errorf("%v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return m.errorf("import %s: status %d: %s", name, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return nil
}

// Resume lifts a migration drain on the named session — the rollback path
// of a failed migration.
func (m *Member) Resume(name string) error {
	resp, err := m.client.Post(m.base+"/v1/sessions/"+url.PathEscape(name)+"/resume", "application/json", nil)
	if err != nil {
		return m.errorf("%v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusNoContent {
		return m.errorf("resume %s: status %d", name, resp.StatusCode)
	}
	return nil
}

// Delete removes the named session from the member.
func (m *Member) Delete(name string) error {
	req, err := http.NewRequest(http.MethodDelete, m.base+"/v1/sessions/"+url.PathEscape(name), nil)
	if err != nil {
		return m.errorf("%v", err)
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return m.errorf("%v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	if resp.StatusCode != http.StatusNoContent {
		return m.errorf("delete %s: status %d", name, resp.StatusCode)
	}
	return nil
}
