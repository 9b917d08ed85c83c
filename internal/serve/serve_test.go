package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"focus/internal/serve"
)

// clusterSession returns a create payload for a 1-attribute cluster session
// whose reference spreads 40 rows evenly over 4 grid cells.
func clusterSession(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"model": "cluster",
		"schema": {"attrs": [{"name": "x", "kind": "numeric", "min": 0, "max": 100}]},
		"grid_attrs": ["x"],
		"grid_bins": 4,
		"min_density": 0.05,
		"window": 1,
		"threshold": 0.5,
		"reference": %s
	}`, name, uniformRows())
}

// uniformRows spreads 40 rows evenly over the 4 cells of the grid.
func uniformRows() string {
	var rows []string
	for i := 0; i < 40; i++ {
		rows = append(rows, fmt.Sprintf(`{"x": %d}`, (i%4)*25+10))
	}
	return "[" + strings.Join(rows, ",") + "]"
}

// driftRows piles 40 rows into the last cell.
func driftRows() string {
	var rows []string
	for i := 0; i < 40; i++ {
		rows = append(rows, `{"x": 90}`)
	}
	return "[" + strings.Join(rows, ",") + "]"
}

func litsSession(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"model": "lits",
		"num_items": 10,
		"min_support": 0.2,
		"window": 1,
		"reference": [[0,1],[0,1],[2],[0],[1]]
	}`, name)
}

// litsSessionCounter is litsSession with the retired "counter" field set
// and a reference wide enough that mining does real work.
func litsSessionCounter(name, counter string) string {
	var rows []string
	for i := 0; i < 300; i++ {
		rows = append(rows, fmt.Sprintf("[%d,%d,%d]", i%7, i%5+3, i%3+8))
	}
	return fmt.Sprintf(`{
		"name": %q,
		"model": "lits",
		"num_items": 12,
		"min_support": 0.1,
		"counter": %q,
		"window": 2,
		"threshold": 0.2,
		"reference": [%s]
	}`, name, counter, strings.Join(rows, ","))
}

func dtSession(name string) string {
	var rows []string
	for i := 0; i < 200; i++ {
		cls := "A"
		if i%2 == 1 {
			cls = "B"
		}
		rows = append(rows, fmt.Sprintf(`{"x": %d, "class": %q}`, (i*7)%100, cls))
	}
	return fmt.Sprintf(`{
		"name": %q,
		"model": "dt",
		"schema": {
			"attrs": [
				{"name": "x", "kind": "numeric", "min": 0, "max": 100},
				{"name": "class", "kind": "categorical", "values": ["A", "B"]}
			],
			"class": "class"
		},
		"min_leaf": 20,
		"window": 2,
		"reference": [%s]
	}`, name, strings.Join(rows, ","))
}

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.NewRegistry().Handler())
	t.Cleanup(ts.Close)
	return ts
}

// do issues one request and decodes the JSON response.
func do(t *testing.T, ts *httptest.Server, method, path, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, path, err)
	}
	return resp.StatusCode, out
}

// TestCreateSessionValidation drives the create endpoint through its 4xx
// space: bad schemas and configs are client errors, never 5xx.
func TestCreateSessionValidation(t *testing.T) {
	ts := newServer(t)
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"valid cluster", clusterSession("ok"), 201},
		{"valid lits", litsSession("ok-lits"), 201},
		{"valid dt", dtSession("ok-dt"), 201},
		{"duplicate name", clusterSession("ok"), 409},
		{"missing name", `{"model": "cluster"}`, 400},
		{"slash in name", clusterSession("a/b"), 400},
		{"dot-dot name", clusterSession(".."), 400},
		{"space in name", clusterSession("a b"), 400},
		{"hash in name", clusterSession("a#b"), 400},
		{"empty reference", strings.Replace(clusterSession("er"), uniformRows(), "[]", 1), 400},
		{"unknown model", `{"name": "m", "model": "quantile"}`, 400},
		{"malformed json", `{"name": "m",`, 400},
		{"unknown field", `{"name": "m", "model": "cluster", "bogus": 1}`, 400},
		{"cluster missing schema", `{"name": "m", "model": "cluster", "grid_attrs": ["x"]}`, 400},
		{"cluster bad kind", `{"name": "m", "model": "cluster", "grid_attrs": ["x"],
			"schema": {"attrs": [{"name": "x", "kind": "gaussian"}]}}`, 400},
		{"cluster min>max", `{"name": "m", "model": "cluster", "grid_attrs": ["x"],
			"schema": {"attrs": [{"name": "x", "kind": "numeric", "min": 5, "max": 1}]}}`, 400},
		{"cluster unknown grid attr", `{"name": "m", "model": "cluster", "grid_attrs": ["y"],
			"schema": {"attrs": [{"name": "x", "kind": "numeric", "min": 0, "max": 1}]}}`, 400},
		{"cluster missing reference", `{"name": "m", "model": "cluster", "grid_attrs": ["x"],
			"schema": {"attrs": [{"name": "x", "kind": "numeric", "min": 0, "max": 1}]}}`, 400},
		{"cluster bad reference row", strings.Replace(clusterSession("m"), `{"x": 10}`, `{"x": 200}`, 1), 400},
		{"cluster bad density without reference", `{"name": "bad-density", "model": "cluster", "grid_attrs": ["x"], "grid_bins": 4,
			"min_density": -0.5, "window": 1, "previous_window": true,
			"schema": {"attrs": [{"name": "x", "kind": "numeric", "min": 0, "max": 100}]}}`, 400},
		{"lits missing universe", `{"name": "m", "model": "lits", "min_support": 0.1, "reference": [[0]]}`, 400},
		{"lits bad support", `{"name": "m", "model": "lits", "num_items": 5, "min_support": 2, "reference": [[0]]}`, 400},
		{"lits item outside universe", `{"name": "m", "model": "lits", "num_items": 5, "min_support": 0.1, "reference": [[9]]}`, 400},
		// A universe past the int32 item ids is refused before anything is
		// sized by it; an id past 1<<31-1 would otherwise wrap into it.
		{"lits universe past item ids", `{"name": "m", "model": "lits", "num_items": 3000000000, "min_support": 0.1, "reference": [[2147483648]]}`, 400},
		{"lits universe one past item ids", `{"name": "m", "model": "lits", "num_items": 2147483649, "min_support": 0.1, "reference": [[0]]}`, 400},
		{"lits counter bitmap", litsSessionCounter("ok-bitmap", "bitmap"), 201},
		{"lits counter trie", litsSessionCounter("ok-trie", "trie"), 201},
		{"lits bad counter", litsSessionCounter("m", "btree"), 400},
		{"lits counter zz", litsSessionCounter("m", "zz"), 400},
		{"dt missing class", `{"name": "m", "model": "dt", "reference": [{"x": 1}],
			"schema": {"attrs": [{"name": "x", "kind": "numeric", "min": 0, "max": 1}]}}`, 400},
		{"dt missing reference", strings.Replace(dtSession("m"), `"reference"`, `"_reference"`, 1), 400},
		// The hist and auto split searches are retired: a create naming
		// either, or sending hist_bins, is refused rather than given the
		// exact tree.
		{"dt split search hist", strings.Replace(dtSession("ok-dt-hist"), `"min_leaf": 20,`,
			`"min_leaf": 20, "split_search": "hist", "hist_bins": 16,`, 1), 400},
		{"dt split search auto", strings.Replace(dtSession("ok-dt-auto"), `"min_leaf": 20,`,
			`"min_leaf": 20, "split_search": "auto",`, 1), 400},
		{"dt split search hist without bins", strings.Replace(dtSession("m"), `"min_leaf": 20,`,
			`"min_leaf": 20, "split_search": "hist",`, 1), 400},
		{"dt hist bins", strings.Replace(dtSession("m"), `"min_leaf": 20,`,
			`"min_leaf": 20, "hist_bins": 16,`, 1), 400},
		{"dt split search exact", strings.Replace(dtSession("ok-dt-exact"), `"min_leaf": 20,`,
			`"min_leaf": 20, "split_search": "exact",`, 1), 201},
		{"dt bad split search", strings.Replace(dtSession("m"), `"min_leaf": 20,`,
			`"min_leaf": 20, "split_search": "btree",`, 1), 400},
		{"dt bad hist bins", strings.Replace(dtSession("m"), `"min_leaf": 20,`,
			`"min_leaf": 20, "split_search": "hist", "hist_bins": 1,`, 1), 400},
		{"dt negative max depth", strings.Replace(dtSession("m"), `"min_leaf": 20,`,
			`"min_leaf": 20, "max_depth": -1,`, 1), 400},
		{"bad f", strings.Replace(clusterSession("m"), `"model": "cluster"`, `"model": "cluster", "f": "cosine"`, 1), 400},
		{"bad window", strings.Replace(clusterSession("m"), `"window": 1`, `"window": -3`, 1), 400},
		{"epoch window and tumbling", strings.Replace(clusterSession("m"), `"window": 1`, `"epoch_window": 2, "tumbling": true`, 1), 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := do(t, ts, "POST", "/v1/sessions", c.body)
			if code != c.wantCode {
				t.Fatalf("status %d (body %v), want %d", code, body, c.wantCode)
			}
			if c.wantCode >= 400 && body["error"] == "" {
				t.Fatalf("error body missing: %v", body)
			}
		})
	}
}

// TestFeedValidation drives the batches endpoint through its error space.
func TestFeedValidation(t *testing.T) {
	ts := newServer(t)
	if code, body := do(t, ts, "POST", "/v1/sessions", clusterSession("s")); code != 201 {
		t.Fatalf("create: %d %v", code, body)
	}
	if code, body := do(t, ts, "POST", "/v1/sessions", litsSession("l")); code != 201 {
		t.Fatalf("create lits: %d %v", code, body)
	}
	cases := []struct {
		name, path, body string
		wantCode         int
	}{
		{"unknown session", "/v1/sessions/nope/batches", `{"rows": []}`, 404},
		{"missing rows", "/v1/sessions/s/batches", `{}`, 400},
		{"empty rows", "/v1/sessions/s/batches", `{"rows": []}`, 400},
		{"null rows", "/v1/sessions/s/batches", `{"rows": null}`, 400},
		{"rows not an array", "/v1/sessions/s/batches", `{"rows": "zap"}`, 400},
		{"malformed row", "/v1/sessions/s/batches", `{"rows": [{"x": "red"}]}`, 400},
		{"out of domain row", "/v1/sessions/s/batches", `{"rows": [{"x": 101}]}`, 400},
		{"missing attribute", "/v1/sessions/s/batches", `{"rows": [{}]}`, 400},
		{"tuple rows into lits", "/v1/sessions/l/batches", `{"rows": [{"x": 1}]}`, 400},
		{"lits item outside universe", "/v1/sessions/l/batches", `{"rows": [[11]]}`, 400},
		{"valid feed", "/v1/sessions/s/batches", `{"rows": [{"x": 10}, {"x": 60}]}`, 200},
		{"valid lits feed", "/v1/sessions/l/batches", `{"rows": [[0,1],[2]]}`, 200},
		{"epoch ok", "/v1/sessions/s/batches", fmt.Sprintf(`{"epoch": 7, "rows": %s}`, uniformRows()), 200},
		{"epoch regression", "/v1/sessions/s/batches", `{"epoch": 3, "rows": [{"x": 10}]}`, 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := do(t, ts, "POST", c.path, c.body)
			if code != c.wantCode {
				t.Fatalf("status %d (body %v), want %d", code, body, c.wantCode)
			}
		})
	}
}

// TestServeDriftAlert is the in-process version of the focusd smoke test:
// a drifted batch against a pinned uniform reference must cross the
// threshold, alert, and surface in the report and state endpoints.
func TestServeDriftAlert(t *testing.T) {
	ts := newServer(t)
	if code, body := do(t, ts, "POST", "/v1/sessions", clusterSession("drift")); code != 201 {
		t.Fatalf("create: %d %v", code, body)
	}

	// A batch matching the reference stays quiet.
	code, body := do(t, ts, "POST", "/v1/sessions/drift/batches", fmt.Sprintf(`{"rows": %s}`, uniformRows()))
	if code != 200 {
		t.Fatalf("feed uniform: %d %v", code, body)
	}
	rep := body["report"].(map[string]any)
	if rep["alert"].(bool) {
		t.Fatalf("uniform batch alerted: %v", rep)
	}

	// The drifted batch alerts.
	code, body = do(t, ts, "POST", "/v1/sessions/drift/batches", fmt.Sprintf(`{"rows": %s}`, driftRows()))
	if code != 200 {
		t.Fatalf("feed drift: %d %v", code, body)
	}
	rep = body["report"].(map[string]any)
	if !rep["alert"].(bool) {
		t.Fatalf("drifted batch did not alert: %v", rep)
	}
	if dev := rep["deviation"].(float64); dev < 0.5 {
		t.Fatalf("drift deviation %v below threshold", dev)
	}

	// The reports endpoint retains both emissions and counts the alert.
	code, body = do(t, ts, "GET", "/v1/sessions/drift/reports", "")
	if code != 200 {
		t.Fatalf("reports: %d %v", code, body)
	}
	reports := body["reports"].([]any)
	if len(reports) != 2 {
		t.Fatalf("retained %d reports, want 2", len(reports))
	}
	if alerts := body["alerts"].(float64); alerts != 1 {
		t.Fatalf("alerts = %v, want 1", alerts)
	}
	if last := reports[1].(map[string]any); !last["alert"].(bool) {
		t.Fatalf("last retained report not the alert: %v", last)
	}

	// The state endpoint agrees.
	code, body = do(t, ts, "GET", "/v1/sessions/drift", "")
	if code != 200 {
		t.Fatalf("state: %d %v", code, body)
	}
	if body["reports"].(float64) != 2 || body["alerts"].(float64) != 1 {
		t.Fatalf("state %v", body)
	}
	if body["last_report"].(map[string]any)["alert"] != true {
		t.Fatalf("state last_report %v", body["last_report"])
	}
}

// TestSessionLifecycle exercises list and delete.
func TestSessionLifecycle(t *testing.T) {
	ts := newServer(t)
	for _, name := range []string{"b", "a"} {
		if code, body := do(t, ts, "POST", "/v1/sessions", clusterSession(name)); code != 201 {
			t.Fatalf("create %s: %d %v", name, code, body)
		}
	}
	code, body := do(t, ts, "GET", "/v1/sessions", "")
	if code != 200 {
		t.Fatalf("list: %d", code)
	}
	sessions := body["sessions"].([]any)
	if len(sessions) != 2 {
		t.Fatalf("listed %d sessions, want 2", len(sessions))
	}
	if sessions[0].(map[string]any)["name"] != "a" {
		t.Fatalf("sessions not sorted: %v", sessions)
	}
	if code, _ := do(t, ts, "DELETE", "/v1/sessions/a", ""); code != 204 {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := do(t, ts, "GET", "/v1/sessions/a", ""); code != 404 {
		t.Fatalf("get after delete: %d", code)
	}
	if code, _ := do(t, ts, "DELETE", "/v1/sessions/a", ""); code != 404 {
		t.Fatalf("double delete: %d", code)
	}
	if code, body := do(t, ts, "GET", "/healthz", ""); code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
}

// TestQualifiedSession pins that qualification plumbs through to the wire:
// reports carry a significance percentage.
func TestQualifiedSession(t *testing.T) {
	ts := newServer(t)
	body := strings.Replace(clusterSession("q"), `"threshold": 0.5`, `"threshold": 0.5, "qualify": true, "replicates": 19, "seed": 1`, 1)
	if code, b := do(t, ts, "POST", "/v1/sessions", body); code != 201 {
		t.Fatalf("create: %d %v", code, b)
	}
	code, b := do(t, ts, "POST", "/v1/sessions/q/batches", fmt.Sprintf(`{"rows": %s}`, driftRows()))
	if code != 200 {
		t.Fatalf("feed: %d %v", code, b)
	}
	rep := b["report"].(map[string]any)
	if _, ok := rep["significance"]; !ok {
		t.Fatalf("qualified report missing significance: %v", rep)
	}
}

// TestPreviousWindowSession creates a session without reference data.
func TestPreviousWindowSession(t *testing.T) {
	ts := newServer(t)
	body := `{
		"name": "pw",
		"model": "cluster",
		"schema": {"attrs": [{"name": "x", "kind": "numeric", "min": 0, "max": 100}]},
		"grid_attrs": ["x"],
		"grid_bins": 4,
		"window": 1,
		"previous_window": true
	}`
	if code, b := do(t, ts, "POST", "/v1/sessions", body); code != 201 {
		t.Fatalf("create: %d %v", code, b)
	}
	// First batch becomes the reference: no report.
	code, b := do(t, ts, "POST", "/v1/sessions/pw/batches", fmt.Sprintf(`{"rows": %s}`, uniformRows()))
	if code != 200 || b["report"] != nil {
		t.Fatalf("first batch: %d %v", code, b)
	}
	// Second batch reports against it.
	code, b = do(t, ts, "POST", "/v1/sessions/pw/batches", fmt.Sprintf(`{"rows": %s}`, driftRows()))
	if code != 200 || b["report"] == nil {
		t.Fatalf("second batch: %d %v", code, b)
	}
}

// TestCounterSessionsEquivalent pins the retired "counter" field: a create
// naming any of its valid values answers 201 and then reports exactly
// like a session created without the field — deviation bytes included,
// since every report decodes from the same JSON rendering.
func TestCounterSessionsEquivalent(t *testing.T) {
	ts := newServer(t)
	plain := strings.Replace(litsSessionCounter("plain", ""), `"counter": "",`, "", 1)
	if strings.Contains(plain, "counter") {
		t.Fatal("the baseline session still names the counter field")
	}
	names := []string{"plain"}
	if code, b := do(t, ts, "POST", "/v1/sessions", plain); code != 201 {
		t.Fatalf("create plain: %d %v", code, b)
	}
	for _, counter := range []string{"", "auto", "trie", "bitmap"} {
		name := "counter-" + counter
		if code, b := do(t, ts, "POST", "/v1/sessions", litsSessionCounter(name, counter)); code != 201 {
			t.Fatalf("create with counter %q: %d %v", counter, code, b)
		}
		names = append(names, name)
	}
	batches := []string{}
	for b := 0; b < 4; b++ {
		var rows []string
		for i := 0; i < 150; i++ {
			rows = append(rows, fmt.Sprintf("[%d,%d]", (i+b*2)%9, (i+b)%4+6))
		}
		batches = append(batches, "["+strings.Join(rows, ",")+"]")
	}
	for bi, rows := range batches {
		var want []byte
		for _, name := range names {
			code, b := do(t, ts, "POST", "/v1/sessions/"+name+"/batches", fmt.Sprintf(`{"rows": %s}`, rows))
			if code != 200 {
				t.Fatalf("batch %d to %s: %d %v", bi, name, code, b)
			}
			got, _ := json.Marshal(b["report"])
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Fatalf("batch %d: %s report %s != plain report %s", bi, name, got, want)
			}
		}
	}
}
