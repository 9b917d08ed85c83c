package main

import (
	"sync"
	"testing"
	"time"
)

// TestOpenLoopCountsStallsFromDueTime stalls the system on the first
// request and checks that the requests queued behind it are charged the
// wait: the schedule does not slow down, and latency and lateness count
// from each request's due time.
func TestOpenLoopCountsStallsFromDueTime(t *testing.T) {
	const stall, interval = 100 * time.Millisecond, 10 * time.Millisecond
	reqs := make([]*request, 20)
	for i := range reqs {
		reqs[i] = &request{kind: kindFeed, batch: i}
	}
	sendFn := func(r *request) (int, []byte, error) {
		if r.batch == 0 {
			time.Sleep(stall)
		}
		return 200, nil, nil
	}
	tr := newTracer(true)
	out := openLoop(reqs, interval, 1, sendFn, tr)

	for i := 1; i < 5; i++ {
		due := time.Duration(i) * interval
		if late := out[i].Late(); late < stall-due-5*time.Millisecond {
			t.Errorf("request %d due at %v sent only %v late, want about %v", i, due, late, stall-due)
		}
		if out[i].Latency() < out[i].Late() {
			t.Errorf("request %d latency %v below its lateness %v", i, out[i].Latency(), out[i].Late())
		}
	}
	if got := out[1].Due.Sub(out[0].Due); got != interval {
		t.Errorf("due times %v apart, want %v: the schedule slowed down", got, interval)
	}
	if late := out[len(out)-1].Late(); late > stall/2 {
		t.Errorf("last request still %v late: the backlog never drained", late)
	}

	// The request span's self time is exactly its lateness.
	st := newSpanStats(tr.Spans())
	selfs := st.selfs("loadgen.request")
	if len(selfs) != len(reqs) {
		t.Fatalf("%d request spans, want %d", len(selfs), len(reqs))
	}
	var maxLate time.Duration
	for i := range out {
		maxLate = max(maxLate, out[i].Late())
	}
	if got := time.Duration(percentile(selfs, 1)); got != maxLate.Round(0) {
		t.Errorf("largest request self time %v, want the largest lateness %v", got, maxLate)
	}
}

// TestGeneratorsHoldAtMostConnsCalls checks that neither loop has more
// than conns calls in flight, however slow the system is.
func TestGeneratorsHoldAtMostConnsCalls(t *testing.T) {
	const conns = 2
	var mu sync.Mutex
	inFlight, peak := 0, 0
	sendFn := func(r *request) (int, []byte, error) {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(3 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return 200, nil, nil
	}
	reqs := make([]*request, 30)
	for i := range reqs {
		reqs[i] = &request{kind: kindFeed}
	}
	openLoop(reqs, 100*time.Microsecond, conns, sendFn, newTracer(false))
	for i, o := range closedLoop(reqs, conns, sendFn, newTracer(false)) {
		if !o.ok() {
			t.Errorf("closed loop left request %d unsent", i)
		}
	}
	if peak > conns {
		t.Errorf("%d calls in flight, limit %d", peak, conns)
	}
}
