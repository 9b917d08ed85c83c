package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Request kinds. The span name of a request's call is "fleet." + kind.
const (
	kindFeed    = "feed"
	kindReports = "reports"
	kindSummary = "summary"
)

// request is one generated HTTP call. The program sees only method, path
// and body; sess and batch say which session state it touches.
type request struct {
	op    int64 // operation id of the request's spans; unique within a run
	kind  string
	sess  int
	batch int // index into the session's batch list (feeds)
	path  string
	body  []byte // nil: GET
}

// outcome is what happened to one request. Due is when the schedule
// wanted it sent, Sent when a connection took it, Done when its response
// was read; a request that was never sent has a zero Sent.
type outcome struct {
	Due, Sent, Done time.Time
	Status          int
	Body            []byte
	Err             error
}

// Latency is the time from due to done: it includes any wait the
// generator imposed because earlier requests held every connection.
func (o *outcome) Latency() time.Duration { return o.Done.Sub(o.Due) }

// Late is how far behind schedule the request was sent.
func (o *outcome) Late() time.Duration { return o.Sent.Sub(o.Due) }

// ok reports whether the call returned 200.
func (o *outcome) ok() bool { return o.Err == nil && o.Status == 200 }

// sendFunc performs one request and returns its status and body.
type sendFunc func(r *request) (status int, body []byte, err error)

// openLoop sends reqs[i] at start+i*interval over at most conns
// concurrent connections. The schedule never slows down when the system
// does: each of conns senders claims the next request as soon as it is
// free, sleeps until that request is due, and sends it; a request whose
// due time passed while every sender was busy goes out at once, and its
// latency still counts from its due time. With tracing on, each request
// gets a "loadgen.request" span from due to done whose child
// "fleet.<kind>" covers the call itself, so the request span's self time
// is its lateness.
func openLoop(reqs []*request, interval time.Duration, conns int, send sendFunc, tr *Tracer) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &out[i]
				o.Due = start.Add(time.Duration(i) * interval)
				sleepUntil(o.Due)
				root := tr.BeginAt("loadgen.request", 0, reqs[i].op, o.Due)
				o.Sent = time.Now()
				call := tr.BeginAt("fleet."+reqs[i].kind, root, reqs[i].op, o.Sent)
				o.Status, o.Body, o.Err = send(reqs[i])
				o.Done = time.Now()
				tr.EndAt(call, o.Done)
				tr.EndAt(root, o.Done)
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// runtime's timers wake sleepers on a millisecond grid (its poller waits
// in whole milliseconds), which would make every open-loop request up to
// a millisecond late; the system call keeps lateness near the kernel's
// timer slack. An interrupted sleep simply sleeps again.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop re-checks the time
	}
}

// closedLoop runs conns callers that each send the next unsent request as
// soon as their previous one completes, until every request is sent, and
// returns the outcomes.
func closedLoop(reqs []*request, conns int, send sendFunc, tr *Tracer) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &out[i]
				o.Sent = time.Now()
				o.Due = o.Sent
				call := tr.BeginAt("fleet."+reqs[i].kind, 0, reqs[i].op, o.Sent)
				o.Status, o.Body, o.Err = send(reqs[i])
				o.Done = time.Now()
				tr.EndAt(call, o.Done)
			}
		}()
	}
	wg.Wait()
	return out
}
