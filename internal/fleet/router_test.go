package fleet_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"focus/internal/fleet"
	"focus/internal/serve"
)

// testFleet is an in-process fleet: real focusd registries behind real
// loopback HTTP listeners, fronted by a router on its own listener.
type testFleet struct {
	members []*httptest.Server // focusd API servers
	addrs   []string           // host:port ring keys, index-aligned with members
	router  *fleet.Router
	ts      *httptest.Server // router API server
}

func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{}
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(serve.NewRegistry().Handler())
		t.Cleanup(ts.Close)
		f.members = append(f.members, ts)
		f.addrs = append(f.addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	f.router = fleet.NewRouter(f.addrs, 0, nil)
	f.ts = httptest.NewServer(f.router.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

// request issues a raw request against base and returns status, headers
// and the unparsed body.
func request(t *testing.T, base, method, path, body string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
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

// clusterSession is a create payload for a 1-attribute cluster session
// with bootstrap qualification, so reports consume a per-report RNG
// stream: byte-identical report bodies across a migration prove the moved
// monitor resumed the exact seed sequence.
func clusterSession(name string) string {
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
	}`, name, shiftRows(0))
}

// shiftRows rotates 40 rows through the 4 grid cells, offset by shift.
func shiftRows(shift int) string {
	var rows []string
	for i := 0; i < 40; i++ {
		rows = append(rows, fmt.Sprintf(`{"x": %d}`, ((i+shift)%4)*25+10))
	}
	return "[" + strings.Join(rows, ",") + "]"
}

// feedBody wraps rows into a batch body.
func feedBody(epoch, shift int) string {
	return fmt.Sprintf(`{"epoch": %d, "rows": %s}`, epoch, shiftRows(shift))
}

// sessionNames lists the session names one member hosts, queried directly.
func sessionNames(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	status, _, body := request(t, ts.URL, http.MethodGet, "/v1/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("member list: status %d: %s", status, body)
	}
	var list struct {
		Sessions []struct {
			Name string `json:"name"`
		} `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("decoding member list: %v", err)
	}
	names := make([]string, 0, len(list.Sessions))
	for _, s := range list.Sessions {
		names = append(names, s.Name)
	}
	return names
}

// createThrough creates n qualified sessions through the router and feeds
// each a couple of drifting batches; it returns the session names.
func createThrough(t *testing.T, f *testFleet, n int) []string {
	t.Helper()
	var names []string
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("sess-%02d", i))
	}
	createNamed(t, f, names)
	return names
}

// createNamed creates the named sessions through the router and feeds
// each two batches, as createThrough does.
func createNamed(t *testing.T, f *testFleet, names []string) {
	t.Helper()
	for i, name := range names {
		status, _, body := request(t, f.ts.URL, http.MethodPost, "/v1/sessions", clusterSession(name))
		if status != http.StatusCreated {
			t.Fatalf("create %s: status %d: %s", name, status, body)
		}
		for epoch := 1; epoch <= 2; epoch++ {
			status, _, body = request(t, f.ts.URL, http.MethodPost, "/v1/sessions/"+name+"/batches", feedBody(epoch, i%4))
			if status != http.StatusOK {
				t.Fatalf("feed %s: status %d: %s", name, status, body)
			}
		}
	}
}

// reportBodies captures the raw reports body of every session via the
// router, keyed by name.
func reportBodies(t *testing.T, f *testFleet, names []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(names))
	for _, name := range names {
		status, _, body := request(t, f.ts.URL, http.MethodGet, "/v1/sessions/"+name+"/reports", "")
		if status != http.StatusOK {
			t.Fatalf("reports %s: status %d: %s", name, status, body)
		}
		out[name] = body
	}
	return out
}

// TestRouterRoutesAndSpreads creates sessions through the router and
// checks each lands on exactly one member, the fleet uses more than one
// shard, and the router's per-session reads match the hosting member's.
func TestRouterRoutesAndSpreads(t *testing.T) {
	f := newTestFleet(t, 3)
	names := createThrough(t, f, 12)

	hosts := make(map[string]string) // session -> member addr
	shardsUsed := make(map[string]bool)
	for i, ts := range f.members {
		for _, name := range sessionNames(t, ts) {
			if prev, ok := hosts[name]; ok {
				t.Fatalf("session %s hosted on both %s and %s", name, prev, f.addrs[i])
			}
			hosts[name] = f.addrs[i]
			shardsUsed[f.addrs[i]] = true
		}
	}
	if len(hosts) != len(names) {
		t.Fatalf("fleet hosts %d sessions, want %d", len(hosts), len(names))
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("all %d sessions landed on one member; want spread across shards", len(names))
	}

	for _, name := range names {
		_, _, viaRouter := request(t, f.ts.URL, http.MethodGet, "/v1/sessions/"+name, "")
		memberURL := "http://" + hosts[name]
		_, _, direct := request(t, memberURL, http.MethodGet, "/v1/sessions/"+name, "")
		if viaRouter != direct {
			t.Fatalf("session %s: router state %q != member state %q", name, viaRouter, direct)
		}
	}
}

// TestRouterProxiesLifecycle drives a full create/feed/reports/delete
// cycle through the router.
func TestRouterProxiesLifecycle(t *testing.T) {
	f := newTestFleet(t, 3)
	status, _, body := request(t, f.ts.URL, http.MethodPost, "/v1/sessions", clusterSession("life"))
	if status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	status, _, body = request(t, f.ts.URL, http.MethodPost, "/v1/sessions/life/batches", feedBody(1, 2))
	if status != http.StatusOK {
		t.Fatalf("feed: status %d: %s", status, body)
	}
	status, _, body = request(t, f.ts.URL, http.MethodGet, "/v1/sessions/life/reports", "")
	if status != http.StatusOK {
		t.Fatalf("reports: status %d: %s", status, body)
	}
	if !strings.Contains(body, "deviation") {
		t.Fatalf("reports body carries no deviation: %s", body)
	}
	status, _, _ = request(t, f.ts.URL, http.MethodDelete, "/v1/sessions/life", "")
	if status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	status, _, _ = request(t, f.ts.URL, http.MethodGet, "/v1/sessions/life", "")
	if status != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", status)
	}
}

// TestRouterListMergesSorted checks the scatter-gathered list is the
// name-sorted union of every member's sessions.
func TestRouterListMergesSorted(t *testing.T) {
	f := newTestFleet(t, 3)
	names := createThrough(t, f, 9)

	status, _, body := request(t, f.ts.URL, http.MethodGet, "/v1/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("list: status %d: %s", status, body)
	}
	var list struct {
		Sessions []struct {
			Name string `json:"name"`
		} `json:"sessions"`
		Unreachable []string `json:"unreachable"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	if len(list.Unreachable) != 0 {
		t.Fatalf("unexpected unreachable members: %v", list.Unreachable)
	}
	var got []string
	for _, s := range list.Sessions {
		got = append(got, s.Name)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("merged list is not sorted: %v", got)
	}
	sort.Strings(names)
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Fatalf("merged list %v, want %v", got, names)
	}
}

// TestRouterSummaryMerges checks the fleet summary equals the sum of the
// member summaries and the breakdown covers every member.
func TestRouterSummaryMerges(t *testing.T) {
	f := newTestFleet(t, 3)
	createThrough(t, f, 6)

	var want serve.ShardSummary
	for _, ts := range f.members {
		_, _, body := request(t, ts.URL, http.MethodGet, "/v1/summary", "")
		var sum serve.ShardSummary
		if err := json.Unmarshal([]byte(body), &sum); err != nil {
			t.Fatalf("decoding member summary: %v", err)
		}
		want.Merge(sum)
	}

	status, _, body := request(t, f.ts.URL, http.MethodGet, "/v1/fleet/summary", "")
	if status != http.StatusOK {
		t.Fatalf("fleet summary: status %d: %s", status, body)
	}
	var got fleet.FleetSummary
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decoding fleet summary: %v", err)
	}
	if len(got.Unreachable) != 0 {
		t.Fatalf("unexpected unreachable members: %v", got.Unreachable)
	}
	if len(got.Members) != len(f.members) {
		t.Fatalf("summary covers %d members, want %d", len(got.Members), len(f.members))
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got.Fleet)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("merged summary %s, want %s", gotJSON, wantJSON)
	}
	if got.Fleet.Sessions != 6 {
		t.Fatalf("fleet sessions = %d, want 6", got.Fleet.Sessions)
	}

	// The compatibility endpoint serves the same merged document in the
	// single-node ShardSummary shape.
	_, _, compat := request(t, f.ts.URL, http.MethodGet, "/v1/summary", "")
	var compatSum serve.ShardSummary
	if err := json.Unmarshal([]byte(compat), &compatSum); err != nil {
		t.Fatalf("decoding /v1/summary: %v", err)
	}
	compatJSON, _ := json.Marshal(compatSum)
	if string(compatJSON) != string(wantJSON) {
		t.Fatalf("/v1/summary %s, want %s", compatJSON, wantJSON)
	}
}

// TestRouterAddMemberMigrates joins a third member to a 2-node fleet and
// requires the ring-mandated sessions to move onto it with byte-identical
// reports before and after.
func TestRouterAddMemberMigrates(t *testing.T) {
	f := newTestFleet(t, 2)
	names := createThrough(t, f, 16)
	before := reportBodies(t, f, names)

	joiner := httptest.NewServer(serve.NewRegistry().Handler())
	t.Cleanup(joiner.Close)
	joinerAddr := strings.TrimPrefix(joiner.URL, "http://")

	status, _, body := request(t, f.ts.URL, http.MethodPost, "/v1/fleet/members", fmt.Sprintf(`{"addr": %q}`, joinerAddr))
	if status != http.StatusCreated {
		t.Fatalf("add member: status %d: %s", status, body)
	}
	var res struct {
		Migrated int `json:"migrated"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("decoding add response: %v", err)
	}
	hosted := sessionNames(t, joiner)
	if res.Migrated == 0 || len(hosted) != res.Migrated {
		t.Fatalf("joiner hosts %d sessions, response says %d migrated; want both > 0 and equal", len(hosted), res.Migrated)
	}

	after := reportBodies(t, f, names)
	for _, name := range names {
		if before[name] != after[name] {
			t.Fatalf("session %s reports changed across join:\n before: %s\n after:  %s", name, before[name], after[name])
		}
	}

	// Migrated sessions keep working: feed one of the joiner's sessions
	// through the router and expect a fresh report.
	status, _, body = request(t, f.ts.URL, http.MethodPost, "/v1/sessions/"+hosted[0]+"/batches", feedBody(3, 1))
	if status != http.StatusOK {
		t.Fatalf("feed after join: status %d: %s", status, body)
	}
}

// TestRouterAddMemberRollsBackRefusedJoin joins a member that refuses
// session imports (400 on /import), every one or all after the first.
// Each refused session resumes on its old host, so the join is rolled
// back: AddMember returns the migration errors, the joiner is off the ring
// and hosts nothing, and every session answers through the router with
// its reports byte-identical to before the join.
func TestRouterAddMemberRollsBackRefusedJoin(t *testing.T) {
	for _, accept := range []int32{0, 1} {
		t.Run(fmt.Sprintf("accept=%d", accept), func(t *testing.T) {
			f := newTestFleet(t, 2)
			member := serve.NewRegistry().Handler()
			var imports atomic.Int32
			joiner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if strings.HasSuffix(req.URL.Path, "/import") && imports.Add(1) > accept {
					http.Error(w, `{"error": "image refused"}`, http.StatusBadRequest)
					return
				}
				member.ServeHTTP(w, req)
			}))
			t.Cleanup(joiner.Close)
			joinerAddr := strings.TrimPrefix(joiner.URL, "http://")

			// The joiner's port is random, so pick the 8 names for the
			// ring after the join: 4 it takes over and 4 it leaves.
			ring := fleet.NewRing(0)
			for _, addr := range append(f.addrs, joinerAddr) {
				ring.Add(addr)
			}
			var names []string
			taken := 0
			for i := 0; len(names) < 8; i++ {
				name := fmt.Sprintf("sess-%02d", i)
				if ring.Owner(name) != joinerAddr && len(names)-taken < 4 {
					names = append(names, name)
				} else if ring.Owner(name) == joinerAddr && taken < 4 {
					names = append(names, name)
					taken++
				}
			}
			createNamed(t, f, names)
			before := reportBodies(t, f, names)

			moved, err := f.router.AddMember(joinerAddr)
			if err == nil {
				t.Fatalf("join with refused imports succeeded, %d moved", moved)
			}
			if moved != 0 {
				t.Errorf("rolled-back join reports %d sessions moved", moved)
			}
			for _, m := range f.router.Members() {
				if m.Addr() == joinerAddr {
					t.Fatalf("joiner still on the ring after a refused import: %v", err)
				}
			}
			if left := sessionNames(t, joiner); len(left) != 0 {
				t.Fatalf("rolled-back joiner still hosts %v", left)
			}
			after := reportBodies(t, f, names)
			for _, name := range names {
				if before[name] != after[name] {
					t.Fatalf("session %s reports changed across the rolled-back join:\n before: %s\n after:  %s", name, before[name], after[name])
				}
			}
		})
	}
}

// TestRouterRemoveMemberMigrates retires a member and requires its
// sessions to move to survivors with byte-identical reports.
func TestRouterRemoveMemberMigrates(t *testing.T) {
	f := newTestFleet(t, 3)
	names := createThrough(t, f, 16)
	before := reportBodies(t, f, names)

	// Retire the member hosting the most sessions.
	victim := 0
	for i, ts := range f.members {
		if len(sessionNames(t, ts)) > len(sessionNames(t, f.members[victim])) {
			victim = i
		}
	}
	victimNames := sessionNames(t, f.members[victim])
	if len(victimNames) == 0 {
		t.Fatalf("victim member hosts no sessions; cannot exercise migration")
	}

	status, _, body := request(t, f.ts.URL, http.MethodDelete, "/v1/fleet/members/"+f.addrs[victim], "")
	if status != http.StatusOK {
		t.Fatalf("remove member: status %d: %s", status, body)
	}
	var res struct {
		Migrated int `json:"migrated"`
	}
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatalf("decoding remove response: %v", err)
	}
	if res.Migrated != len(victimNames) {
		t.Fatalf("migrated %d sessions off the retiring member, want %d", res.Migrated, len(victimNames))
	}
	if left := sessionNames(t, f.members[victim]); len(left) != 0 {
		t.Fatalf("retired member still hosts %v", left)
	}

	after := reportBodies(t, f, names)
	for _, name := range names {
		if before[name] != after[name] {
			t.Fatalf("session %s reports changed across retirement:\n before: %s\n after:  %s", name, before[name], after[name])
		}
	}
}

// TestRouterUnreachableMember checks degraded-mode behavior: fleet views
// name the dead member instead of failing, and requests owned by it map
// to 502.
func TestRouterUnreachableMember(t *testing.T) {
	f := newTestFleet(t, 3)
	names := createThrough(t, f, 9)

	// Kill one member ungracefully.
	dead := 1
	deadNames := sessionNames(t, f.members[dead])
	f.members[dead].Close()

	status, _, body := request(t, f.ts.URL, http.MethodGet, "/v1/sessions", "")
	if status != http.StatusOK {
		t.Fatalf("list with dead member: status %d: %s", status, body)
	}
	var list struct {
		Sessions    []json.RawMessage `json:"sessions"`
		Unreachable []string          `json:"unreachable"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	if len(list.Unreachable) != 1 || list.Unreachable[0] != f.addrs[dead] {
		t.Fatalf("unreachable = %v, want [%s]", list.Unreachable, f.addrs[dead])
	}
	if len(list.Sessions) != len(names)-len(deadNames) {
		t.Fatalf("degraded list has %d sessions, want %d", len(list.Sessions), len(names)-len(deadNames))
	}

	var sum fleet.FleetSummary
	_, _, body = request(t, f.ts.URL, http.MethodGet, "/v1/fleet/summary", "")
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatalf("decoding fleet summary: %v", err)
	}
	if len(sum.Unreachable) != 1 || sum.Unreachable[0] != f.addrs[dead] {
		t.Fatalf("summary unreachable = %v, want [%s]", sum.Unreachable, f.addrs[dead])
	}

	if len(deadNames) > 0 {
		status, _, _ = request(t, f.ts.URL, http.MethodPost, "/v1/sessions/"+deadNames[0]+"/batches", feedBody(9, 0))
		if status != http.StatusBadGateway {
			t.Fatalf("feed to dead member: status %d, want 502", status)
		}
	}

	// Members on live shards still serve.
	for _, name := range names {
		alive := true
		for _, dn := range deadNames {
			if dn == name {
				alive = false
			}
		}
		if !alive {
			continue
		}
		status, _, _ = request(t, f.ts.URL, http.MethodGet, "/v1/sessions/"+name, "")
		if status != http.StatusOK {
			t.Fatalf("live session %s: status %d", name, status)
		}
	}
}

// TestRouterValidation exercises the router's own error answers.
func TestRouterValidation(t *testing.T) {
	f := newTestFleet(t, 2)

	status, _, _ := request(t, f.ts.URL, http.MethodPost, "/v1/sessions", "{not json")
	if status != http.StatusBadRequest {
		t.Fatalf("bad JSON create: status %d, want 400", status)
	}
	status, _, _ = request(t, f.ts.URL, http.MethodPost, "/v1/sessions", `{"model": "cluster"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("nameless create: status %d, want 400", status)
	}
	status, _, _ = request(t, f.ts.URL, http.MethodPost, "/v1/fleet/members", fmt.Sprintf(`{"addr": %q}`, f.addrs[0]))
	if status != http.StatusConflict {
		t.Fatalf("duplicate member add: status %d, want 409", status)
	}
	status, _, _ = request(t, f.ts.URL, http.MethodPost, "/v1/fleet/members", `{"addr": "127.0.0.1:1"}`)
	if status != http.StatusBadGateway {
		t.Fatalf("unreachable member add: status %d, want 502", status)
	}
	status, _, _ = request(t, f.ts.URL, http.MethodDelete, "/v1/fleet/members/127.0.0.1:1", "")
	if status != http.StatusNotFound {
		t.Fatalf("unknown member remove: status %d, want 404", status)
	}
	status, _, _ = request(t, f.ts.URL, http.MethodDelete, "/v1/fleet/members/"+f.addrs[0], "")
	if status != http.StatusOK {
		t.Fatalf("member remove: status %d, want 200", status)
	}
	status, _, _ = request(t, f.ts.URL, http.MethodDelete, "/v1/fleet/members/"+f.addrs[1], "")
	if status != http.StatusConflict {
		t.Fatalf("last member remove: status %d, want 409", status)
	}

	// An empty create body on a healthy fleet is still a 400, not a proxy.
	status, _, _ = request(t, f.ts.URL, http.MethodPost, "/v1/sessions", "")
	if status != http.StatusBadRequest {
		t.Fatalf("empty create: status %d, want 400", status)
	}
}

// TestRouterMemberStatuses checks the membership view tracks health and
// session counts.
func TestRouterMemberStatuses(t *testing.T) {
	f := newTestFleet(t, 3)
	createThrough(t, f, 6)
	f.members[2].Close()

	status, _, body := request(t, f.ts.URL, http.MethodGet, "/v1/fleet/members", "")
	if status != http.StatusOK {
		t.Fatalf("members: status %d: %s", status, body)
	}
	var view struct {
		Members []struct {
			Addr     string `json:"addr"`
			Healthy  bool   `json:"healthy"`
			Sessions int    `json:"sessions"`
		} `json:"members"`
	}
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("decoding members view: %v", err)
	}
	if len(view.Members) != 3 {
		t.Fatalf("membership view has %d rows, want 3", len(view.Members))
	}
	total := 0
	for _, m := range view.Members {
		if m.Addr == f.addrs[2] {
			if m.Healthy {
				t.Fatalf("dead member %s reported healthy", m.Addr)
			}
			continue
		}
		if !m.Healthy {
			t.Fatalf("live member %s reported unhealthy", m.Addr)
		}
		total += m.Sessions
	}
	if total == 0 {
		t.Fatalf("live members report no sessions")
	}
}

// TestRouterRefusedImportResumes migrates a session onto a member that
// refuses its image with a 400, as a member of an older version refuses
// an image of a newer one: the migration fails, and the drained session
// resumes on its source with its reports intact and intake open.
func TestRouterRefusedImportResumes(t *testing.T) {
	src := httptest.NewServer(serve.NewRegistry().Handler())
	t.Cleanup(src.Close)
	older := serve.NewRegistry().Handler()
	refuser := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/import") {
			http.Error(w, `{"error":"snapshot version 3 not supported"}`, http.StatusBadRequest)
			return
		}
		older.ServeHTTP(w, req)
	}))
	t.Cleanup(refuser.Close)
	srcAddr, refuserAddr := strings.TrimPrefix(src.URL, "http://"), strings.TrimPrefix(refuser.URL, "http://")

	// A session the ring places on the refusing member, hosted on src.
	ring := fleet.NewRing(0)
	ring.Add(srcAddr)
	ring.Add(refuserAddr)
	name := ""
	for i := 0; name == ""; i++ {
		if n := fmt.Sprintf("s-%d", i); ring.Owner(n) == refuserAddr {
			name = n
		}
	}
	if status, _, body := request(t, src.URL, http.MethodPost, "/v1/sessions", clusterSession(name)); status != http.StatusCreated {
		t.Fatalf("create: status %d: %s", status, body)
	}
	if status, _, body := request(t, src.URL, http.MethodPost, "/v1/sessions/"+name+"/batches", feedBody(1, 1)); status != http.StatusOK {
		t.Fatalf("feed: status %d: %s", status, body)
	}
	_, _, before := request(t, src.URL, http.MethodGet, "/v1/sessions/"+name+"/reports", "")

	rt := fleet.NewRouter([]string{srcAddr, refuserAddr}, 0, nil)
	err := rt.Migrate(name, fleet.NewMember(srcAddr, nil))
	if err == nil || !strings.Contains(err.Error(), "status 400") || !strings.Contains(err.Error(), "resumed on "+srcAddr) {
		t.Fatalf("migration onto a refusing member: %v, want a refused import resumed on the source", err)
	}
	if _, _, after := request(t, src.URL, http.MethodGet, "/v1/sessions/"+name+"/reports", ""); after != before {
		t.Fatalf("reports changed across the refused migration:\n before: %s\n after:  %s", before, after)
	}
	if status, _, body := request(t, src.URL, http.MethodPost, "/v1/sessions/"+name+"/batches", feedBody(2, 2)); status != http.StatusOK {
		t.Fatalf("feed on the source after the rollback: status %d: %s", status, body)
	}
	if names := sessionNames(t, refuser); len(names) != 0 {
		t.Fatalf("the refusing member hosts %v", names)
	}
}
