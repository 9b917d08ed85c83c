package serve_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"focus/internal/serve"
)

// qualifiedClusterSession is a create payload whose reports consume a
// per-report RNG stream (bootstrap qualification): byte-identical reports
// across an export/import prove the migrated monitor resumes the exact
// seed sequence, not just the window counts.
func qualifiedClusterSession(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"model": "cluster",
		"schema": {"attrs": [{"name": "x", "kind": "numeric", "min": 0, "max": 100}]},
		"grid_attrs": ["x"],
		"grid_bins": 4,
		"min_density": 0.05,
		"window": 2,
		"threshold": 0.5,
		"qualify": true,
		"replicates": 19,
		"seed": 11,
		"reference": %s
	}`, name, uniformRows())
}

// shiftRows rotates 40 rows through the 4 grid cells, offset by shift.
func shiftRows(shift int) string {
	var rows []string
	for i := 0; i < 40; i++ {
		rows = append(rows, fmt.Sprintf(`{"x": %d}`, ((i+shift)%4)*25+10))
	}
	return "[" + strings.Join(rows, ",") + "]"
}

// raw issues a request and returns the status, headers and unparsed body.
func raw(t *testing.T, ts *httptest.Server, method, path, body string) (int, http.Header, string) {
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, path, err)
	}
	return resp.StatusCode, resp.Header, string(out)
}

// TestExportImportBitIdentical migrates a qualified session mid-stream
// between two registries and requires its state and report bodies to be
// byte-identical to an unmigrated control fed the same batches.
func TestExportImportBitIdentical(t *testing.T) {
	const batches = 6
	const moveAfter = 3

	control := newServer(t)
	if code, _, body := raw(t, control, "POST", "/v1/sessions", qualifiedClusterSession("m")); code != 201 {
		t.Fatalf("control create: %d: %s", code, body)
	}
	for i := 0; i < batches; i++ {
		feed := fmt.Sprintf(`{"rows": %s}`, shiftRows(i))
		if code, _, body := raw(t, control, "POST", "/v1/sessions/m/batches", feed); code != 200 {
			t.Fatalf("control feed %d: %d: %s", i, code, body)
		}
	}
	_, _, wantState := raw(t, control, "GET", "/v1/sessions/m", "")
	_, _, wantReports := raw(t, control, "GET", "/v1/sessions/m/reports", "")

	src, dst := newServer(t), newServer(t)
	if code, _, body := raw(t, src, "POST", "/v1/sessions", qualifiedClusterSession("m")); code != 201 {
		t.Fatalf("src create: %d: %s", code, body)
	}
	for i := 0; i < moveAfter; i++ {
		feed := fmt.Sprintf(`{"rows": %s}`, shiftRows(i))
		if code, _, body := raw(t, src, "POST", "/v1/sessions/m/batches", feed); code != 200 {
			t.Fatalf("src feed %d: %d: %s", i, code, body)
		}
	}
	code, _, exported := raw(t, src, "POST", "/v1/sessions/m/export?drain=1", "")
	if code != 200 {
		t.Fatalf("export: %d: %s", code, exported)
	}
	if code, _, body := raw(t, dst, "POST", "/v1/sessions/m/import", exported); code != 201 {
		t.Fatalf("import: %d: %s", code, body)
	}
	if code, _, _ := raw(t, src, "DELETE", "/v1/sessions/m", ""); code != 204 {
		t.Fatalf("delete on old owner: %d", code)
	}
	for i := moveAfter; i < batches; i++ {
		feed := fmt.Sprintf(`{"rows": %s}`, shiftRows(i))
		if code, _, body := raw(t, dst, "POST", "/v1/sessions/m/batches", feed); code != 200 {
			t.Fatalf("dst feed %d: %d: %s", i, code, body)
		}
	}
	if _, _, got := raw(t, dst, "GET", "/v1/sessions/m", ""); got != wantState {
		t.Errorf("state diverges after migration\n got: %s\nwant: %s", got, wantState)
	}
	if _, _, got := raw(t, dst, "GET", "/v1/sessions/m/reports", ""); got != wantReports {
		t.Errorf("reports diverge after migration\n got: %s\nwant: %s", got, wantReports)
	}
}

// TestExportDrainAndResume pins the migration drain contract: after an
// export with drain=1 feeds answer 503 with a Retry-After header, queries
// still work, and resume restores intake.
func TestExportDrainAndResume(t *testing.T) {
	ts := newServer(t)
	if code, _, body := raw(t, ts, "POST", "/v1/sessions", litsSession("d")); code != 201 {
		t.Fatalf("create: %d: %s", code, body)
	}
	if code, _, body := raw(t, ts, "POST", "/v1/sessions/d/export?drain=1", ""); code != 200 {
		t.Fatalf("export: %d: %s", code, body)
	}
	code, hdr, body := raw(t, ts, "POST", "/v1/sessions/d/batches", `{"rows": [[0,1]]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("feed while draining: %d: %s, want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining 503 carries no Retry-After header")
	}
	if code, _, _ := raw(t, ts, "GET", "/v1/sessions/d", ""); code != 200 {
		t.Errorf("state while draining: %d, want 200", code)
	}
	if code, _, _ := raw(t, ts, "POST", "/v1/sessions/d/resume", ""); code != 204 {
		t.Fatalf("resume: %d", code)
	}
	if code, _, body := raw(t, ts, "POST", "/v1/sessions/d/batches", `{"rows": [[0,1]]}`); code != 200 {
		t.Errorf("feed after resume: %d: %s", code, body)
	}
	// Export without drain leaves intake open.
	if code, _, _ := raw(t, ts, "POST", "/v1/sessions/d/export", ""); code != 200 {
		t.Fatalf("plain export failed")
	}
	if code, _, _ := raw(t, ts, "POST", "/v1/sessions/d/batches", `{"rows": [[2]]}`); code != 200 {
		t.Errorf("feed after plain export: %d, want 200", code)
	}
}

// TestHealthzDraining pins the shutdown-drain contract of the health
// endpoint: 503 with Retry-After while draining, 200 otherwise.
func TestHealthzDraining(t *testing.T) {
	reg := serve.NewRegistry()
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	if code, _, _ := raw(t, ts, "GET", "/healthz", ""); code != 200 {
		t.Fatalf("healthz before drain: %d", code)
	}
	reg.SetDraining(true)
	code, hdr, body := raw(t, ts, "GET", "/healthz", "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d: %s, want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining healthz carries no Retry-After header")
	}
	reg.SetDraining(false)
	if code, _, _ := raw(t, ts, "GET", "/healthz", ""); code != 200 {
		t.Fatalf("healthz after drain lifted: %d", code)
	}
}

// TestStreamedListMatchesStates requires the streamed list body to be the
// exact JSON document a materialized encode would have produced: sorted by
// name, each entry byte-identical to the session's own state endpoint.
func TestStreamedListMatchesStates(t *testing.T) {
	ts := newServer(t)
	names := []string{"b", "a", "c"}
	for _, name := range names {
		if code, _, body := raw(t, ts, "POST", "/v1/sessions", litsSession(name)); code != 201 {
			t.Fatalf("create %s: %d: %s", name, code, body)
		}
	}
	raw(t, ts, "POST", "/v1/sessions/b/batches", `{"rows": [[0,1],[2]]}`)

	_, _, body := raw(t, ts, "GET", "/v1/sessions", "")
	var list struct {
		Sessions []json.RawMessage `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("streamed list is not valid JSON: %v\n%s", err, body)
	}
	if len(list.Sessions) != 3 {
		t.Fatalf("list holds %d sessions, want 3", len(list.Sessions))
	}
	want := []string{"a", "b", "c"}
	for i, rawState := range list.Sessions {
		var st struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(rawState, &st); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if st.Name != want[i] {
			t.Errorf("entry %d is %q, want %q (sorted)", i, st.Name, want[i])
		}
		_, _, single := raw(t, ts, "GET", "/v1/sessions/"+st.Name, "")
		if strings.TrimRight(single, "\n") != string(rawState) {
			t.Errorf("list entry %q diverges from its state endpoint\nlist: %s\nstate: %s", st.Name, rawState, single)
		}
	}
	if !strings.HasSuffix(body, "}\n") {
		t.Errorf("list body does not end in newline-terminated JSON: %q", body[len(body)-2:])
	}
}

// TestShardSummary drives the mergeable summary: counts, alert totals and
// deviation aggregates reflect the shard, and Merge adds two shards.
func TestShardSummary(t *testing.T) {
	ts := newServer(t)
	for _, name := range []string{"s1", "s2"} {
		if code, _, body := raw(t, ts, "POST", "/v1/sessions", clusterSession(name)); code != 201 {
			t.Fatalf("create %s: %d: %s", name, code, body)
		}
	}
	if code, _, body := raw(t, ts, "POST", "/v1/sessions", litsSession("s3")); code != 201 {
		t.Fatalf("create s3: %d: %s", code, body)
	}
	// s1 drifts (alert), s2 stays uniform (no alert), s3 never reports.
	raw(t, ts, "POST", "/v1/sessions/s1/batches", fmt.Sprintf(`{"rows": %s}`, driftRows()))
	raw(t, ts, "POST", "/v1/sessions/s2/batches", fmt.Sprintf(`{"rows": %s}`, uniformRows()))

	_, _, body := raw(t, ts, "GET", "/v1/summary", "")
	var sum serve.ShardSummary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatalf("decoding summary: %v\n%s", err, body)
	}
	if sum.Sessions != 3 || sum.Models["cluster"] != 2 || sum.Models["lits"] != 1 {
		t.Errorf("summary counts wrong: %+v", sum)
	}
	if sum.Reported != 2 || sum.Reports != 2 {
		t.Errorf("reported/reports wrong: %+v", sum)
	}
	if sum.Alerting != 1 || sum.Alerts != 1 {
		t.Errorf("alert counts wrong: %+v", sum)
	}
	if sum.MaxDeviation <= 0 || sum.SumDeviation < sum.MaxDeviation {
		t.Errorf("deviation aggregates wrong: %+v", sum)
	}

	var merged serve.ShardSummary
	merged.Merge(sum)
	merged.Merge(sum)
	if merged.Sessions != 6 || merged.Alerts != 2 || merged.Models["cluster"] != 4 {
		t.Errorf("merge arithmetic wrong: %+v", merged)
	}
	if merged.MaxDeviation != sum.MaxDeviation {
		t.Errorf("merge max wrong: %+v", merged)
	}
	if merged.SumDeviation != 2*sum.SumDeviation {
		t.Errorf("merge sum wrong: %+v", merged)
	}
}

// TestDurableImportSurvivesReopen imports an exported session into a
// durable registry and reopens it from disk: the imported window state and
// report ring must survive without a single WAL record having been fed.
func TestDurableImportSurvivesReopen(t *testing.T) {
	src := newServer(t)
	if code, _, body := raw(t, src, "POST", "/v1/sessions", qualifiedClusterSession("m")); code != 201 {
		t.Fatalf("create: %d: %s", code, body)
	}
	for i := 0; i < 3; i++ {
		feed := fmt.Sprintf(`{"rows": %s}`, shiftRows(i))
		if code, _, body := raw(t, src, "POST", "/v1/sessions/m/batches", feed); code != 200 {
			t.Fatalf("feed %d: %d: %s", i, code, body)
		}
	}
	_, _, exported := raw(t, src, "POST", "/v1/sessions/m/export", "")

	dir := t.TempDir()
	reg, warnings, err := serve.OpenRegistry(dir, 0)
	if err != nil {
		t.Fatalf("OpenRegistry: %v", err)
	}
	if len(warnings) > 0 {
		t.Fatalf("warnings on fresh dir: %v", warnings)
	}
	ts := httptest.NewServer(reg.Handler())
	if code, _, body := raw(t, ts, "POST", "/v1/sessions/m/import", exported); code != 201 {
		t.Fatalf("durable import: %d: %s", code, body)
	}
	_, _, wantState := raw(t, ts, "GET", "/v1/sessions/m", "")
	_, _, wantReports := raw(t, ts, "GET", "/v1/sessions/m/reports", "")
	ts.Close()
	reg.Close()

	reg2, warnings, err := serve.OpenRegistry(dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(warnings) > 0 {
		t.Fatalf("reopen warnings: %v", warnings)
	}
	ts2 := httptest.NewServer(reg2.Handler())
	defer ts2.Close()
	if _, _, got := raw(t, ts2, "GET", "/v1/sessions/m", ""); got != wantState {
		t.Errorf("state diverges after reopen\n got: %s\nwant: %s", got, wantState)
	}
	if _, _, got := raw(t, ts2, "GET", "/v1/sessions/m/reports", ""); got != wantReports {
		t.Errorf("reports diverge after reopen\n got: %s\nwant: %s", got, wantReports)
	}
}

// TestImportValidation drives the import endpoint's 4xx space.
func TestImportValidation(t *testing.T) {
	ts := newServer(t)
	if code, _, _ := raw(t, ts, "POST", "/v1/sessions/x/import", `{"version": 99, "config": {"name": "x"}}`); code != 400 {
		t.Errorf("unsupported version: %d, want 400", code)
	}
	if code, _, _ := raw(t, ts, "POST", "/v1/sessions/x/import", `{"version": 1, "config": {"name": "x", "model": "nope"}}`); code != 400 {
		t.Errorf("bad model: %d, want 400", code)
	}
	if code, _, _ := raw(t, ts, "POST", "/v1/sessions/x/import", "FOCUSSNP garbage"); code != 400 {
		t.Errorf("corrupt image: %d, want 400", code)
	}
	if code, _, body := raw(t, ts, "POST", "/v1/sessions", litsSession("dup")); code != 201 {
		t.Fatalf("create: %d: %s", code, body)
	}
	_, _, exported := raw(t, ts, "POST", "/v1/sessions/dup/export", "")
	// The image's config must name the session the path imports.
	if code, _, _ := raw(t, ts, "POST", "/v1/sessions/other/import", exported); code != 400 {
		t.Errorf("import under another name: %d, want 400", code)
	}
	if code, _, _ := raw(t, ts, "GET", "/v1/sessions/other", ""); code != 404 {
		t.Errorf("refused import left session other behind: %d", code)
	}
	// A name collision is a 409, and the import must not clobber the
	// existing session.
	if code, _, _ := raw(t, ts, "POST", "/v1/sessions/dup/import", exported); code != 409 {
		t.Errorf("duplicate import: %d, want 409", code)
	}
}
