package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"focus/internal/core"
)

// servedPlan drives one cluster session on a one-member in-memory fleet
// through the router: four warm-up feeds, then four open-loop feeds and a
// reports read.
func servedPlan(t *testing.T) (*env, *servingPlan, [][]outcome, []outcome) {
	t.Helper()
	s, err := clusterSession("cl-00", 0, rand.New(rand.NewSource(1)), 128, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(k int) *request {
		return &request{kind: kindFeed, batch: k, path: sessionPath(s.name) + "/batches", body: s.batches[k].body}
	}
	p := &servingPlan{sessions: []*session{s}, warm: [][]*request{{feed(0), feed(1), feed(2), feed(3)}}}
	for k := 4; k < 8; k++ {
		p.open = append(p.open, feed(k))
	}
	p.open = append(p.open, &request{kind: kindReports, path: sessionPath(s.name) + "/reports"})

	e := &env{conns: 1, tr: newTracer(false), off: newTracer(false)}
	h, err := bootFleet(1, nil, 1, e.off)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if _, err := h.call(&request{path: "/v1/sessions", body: s.create}); err != nil {
		t.Fatal(err)
	}
	var warm []outcome
	for _, r := range p.warm[0] {
		var o outcome
		o.Status, o.Body, o.Err = h.routed(r)
		warm = append(warm, o)
	}
	open := openLoop(p.open, time.Millisecond, 1, h.routed, e.off)
	return e, p, [][]outcome{warm}, open
}

func TestCheckServingAcceptsTheFleetsReports(t *testing.T) {
	e, p, warm, open := servedPlan(t)
	res := newResult()
	if _, err := checkServing(e, p, warm, open, nil, res); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d failures on an honest run: %v", res.failed, res.mismatches)
	}
}

func TestCheckServingFailsOnAnInjectedMismatch(t *testing.T) {
	e, p, warm, open := servedPlan(t)
	// Move one feed's deviation by one ulp.
	var fr feedResponse
	if err := json.Unmarshal(open[2].Body, &fr); err != nil {
		t.Fatal(err)
	}
	fr.Report.Deviation = math.Nextafter(fr.Report.Deviation, math.Inf(1))
	body, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	open[2].Body = body
	res := newResult()
	if _, err := checkServing(e, p, warm, open, nil, res); err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || len(res.mismatches) != 1 || !strings.Contains(res.mismatches[0], "seq 6") {
		t.Fatalf("failed %d, mismatches %v; want the one at seq 6", res.failed, res.mismatches)
	}

	// A mismatch makes the run incorrect and the exit code non-zero.
	var out bytes.Buffer
	if code := report(&out, &bytes.Buffer{}, "test", nil, res); code == 0 {
		t.Fatalf("report exited 0 on a mismatch")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct || last.Failed != 1 {
		t.Fatalf("result line %q: want correct false, failed 1 (%v)", lines[len(lines)-1], err)
	}
}

func TestCheckReadFailsOnAStaleReport(t *testing.T) {
	e, p, warm, open := servedPlan(t)
	read := len(open) - 1
	var rr reportsResponse
	if err := json.Unmarshal(open[read].Body, &rr); err != nil {
		t.Fatal(err)
	}
	rr.Reports[0].Alert = !rr.Reports[0].Alert
	open[read].Body, _ = json.Marshal(rr)
	res := newResult()
	if _, err := checkServing(e, p, warm, open, nil, res); err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Fatalf("a reports read with a flipped alert passed the check")
	}
}

func TestSameQualificationIsBitExact(t *testing.T) {
	a := core.Qualification{Deviation: 0.5, Significance: 95, Null: []float64{0.1, 0.2}}
	b := a
	b.Null = []float64{0.1, math.Nextafter(0.2, 1)}
	if !sameQualification(a, a) || sameQualification(a, b) {
		t.Fatalf("sameQualification must accept equal and reject one-ulp-apart nulls")
	}
}
