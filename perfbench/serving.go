package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"focus/internal/serve"
	"focus/internal/wal"
)

// servingShape is what distinguishes the two serving workloads.
type servingShape struct {
	durable bool
	// kinds is the repeating request-kind cycle of the open loop.
	kinds []string
	// sessions builds the sessions; nBatches[i] is how many batches
	// session i needs.
	sessions func(rng *rand.Rand, nBatches []int) ([]*session, error)
	// pick draws the session of the next feed or reports read.
	pick func(rng *rand.Rand) int
	// probes lists the sessions the traced run probes layer by layer.
	probes []int
}

// servingPlan is every request of one run, generated before set-up.
type servingPlan struct {
	sessions []*session
	warm     [][]*request // per session: the feeds that fill its window
	open     []*request
	sat      []*request
	interval time.Duration
}

func sessionPath(name string) string { return "/v1/sessions/" + name }

// buildPlan draws the request schedule from the seed, then generates
// exactly the batches each session needs.
func buildPlan(e *env, shape servingShape, nSessions int) (*servingPlan, error) {
	rng := rand.New(rand.NewSource(e.seed))
	rate := e.param("rate_per_s")
	nOpen := int(rate * e.seconds * e.param("open_share"))
	nSat := int(e.param("sat_feeds"))
	warm := int(e.param("warm_feeds"))
	next := make([]int, nSessions)
	for i := range next {
		next[i] = warm
	}
	draw := func(kind string) *request {
		r := &request{kind: kind, sess: -1}
		if kind != kindSummary {
			r.sess = shape.pick(rng)
		}
		if kind == kindFeed {
			r.batch = next[r.sess]
			next[r.sess]++
		}
		return r
	}
	p := &servingPlan{interval: time.Duration(float64(time.Second) / rate)}
	for i := 0; i < nOpen; i++ {
		p.open = append(p.open, draw(shape.kinds[i%len(shape.kinds)]))
	}
	// The saturation phase is a fixed amount of work, so that a faster
	// system finishes it sooner rather than doing more of it (and running
	// more compactions); each session cycles through a pool of its own
	// batches to keep the bodies few.
	pool := int(e.param("sat_pool"))
	satBase := append([]int(nil), next...)
	satCount := make([]int, nSessions)
	for i := 0; i < nSat; i++ {
		s := shape.pick(rng)
		p.sat = append(p.sat, &request{kind: kindFeed, sess: s, batch: satBase[s] + satCount[s]%pool})
		satCount[s]++
	}
	for s := range next {
		next[s] += min(satCount[s], pool)
	}
	var err error
	if p.sessions, err = shape.sessions(rng, next); err != nil {
		return nil, err
	}
	for i, r := range append(p.open, p.sat...) {
		r.op = int64(i + 1)
		switch r.kind {
		case kindFeed:
			s := p.sessions[r.sess]
			r.path, r.body = sessionPath(s.name)+"/batches", s.batches[r.batch].body
		case kindReports:
			r.path = sessionPath(p.sessions[r.sess].name) + "/reports"
		case kindSummary:
			r.path = "/v1/summary"
		}
	}
	p.warm = make([][]*request, nSessions)
	for i, s := range p.sessions {
		for k := 0; k < warm; k++ {
			p.warm[i] = append(p.warm[i], &request{kind: kindFeed, sess: i, batch: k,
				path: sessionPath(s.name) + "/batches", body: s.batches[k].body})
		}
	}
	return p, nil
}

// eachParallel runs fn(i) for i in [0,n) on conns workers and returns the
// first error.
func eachParallel(n, conns int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// roundDir holds the durable members' data dirs of one set-up round.
func roundDir(e *env, round int) string {
	return filepath.Join(e.work, "round-"+strconv.Itoa(round))
}

// setupFleet boots the members and router, creates every session through
// the router and fills every window. It returns the warm-up outcomes.
func setupFleet(e *env, shape servingShape, p *servingPlan, round int) (*fleetHarness, [][]outcome, error) {
	var dirs []string
	if shape.durable {
		for i := 0; i < int(e.param("members")); i++ {
			dirs = append(dirs, filepath.Join(roundDir(e, round), "member-"+strconv.Itoa(i)))
		}
	}
	h, err := bootFleet(int(e.param("members")), dirs, e.conns, e.off)
	if err != nil {
		return nil, nil, err
	}
	warm := make([][]outcome, len(p.sessions))
	err = eachParallel(len(p.sessions), e.conns, func(i int) error {
		s := p.sessions[i]
		var err error
		e.tr.Time("fleet.create", func() {
			_, err = h.call(&request{path: "/v1/sessions", body: s.create})
		})
		if err != nil {
			return fmt.Errorf("creating %s: %w", s.name, err)
		}
		for _, r := range p.warm[i] {
			o := outcome{Sent: time.Now()}
			o.Status, o.Body, o.Err = h.routed(r)
			o.Done = time.Now()
			if !o.ok() {
				return fmt.Errorf("warming %s: status %d: %v", s.name, o.Status, o.Err)
			}
			warm[i] = append(warm[i], o)
		}
		return nil
	})
	if err != nil {
		h.close()
		return nil, nil, err
	}
	return h, warm, nil
}

// served is one report a member returned for a feed.
type served struct {
	batch int
	rep   serve.ReportJSON
}

// feedResponse is the member's answer to a feed.
type feedResponse struct {
	Report *serve.ReportJSON `json:"report"`
}

// reportsResponse is the member's answer to a reports read.
type reportsResponse struct {
	Reports []serve.ReportJSON `json:"reports"`
	Alerts  int                `json:"alerts"`
}

// runServing runs a serving workload: set-up (repeated for the set-up
// metric, before and after the measured phases), an open-loop phase at
// the fixed rate, restarts of a durable fleet, a closed-loop saturation
// phase, and the correctness check.
func runServing(e *env, shape servingShape, nSessions int) (*result, error) {
	p, err := buildPlan(e, shape, nSessions)
	if err != nil {
		return nil, err
	}
	res := newResult()
	// Set-up rounds run in setupGroups groups: before the measured
	// phases, after them and after the fleet has closed. The last round
	// of the first group is the fleet the run measures; the others close
	// as soon as they are timed.
	perGroup := int(e.param("setup_rounds")) / setupGroups
	if e.traced {
		perGroup = 1
	}
	var setups []float64
	round := 0
	setupOnce := func() (*fleetHarness, [][]outcome, error) {
		runtime.GC()
		start := time.Now()
		h, warm, err := setupFleet(e, shape, p, round)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		round++
		return h, warm, nil
	}
	spareSetups := func(n int) error {
		for i := 0; i < n; i++ {
			h, _, err := setupOnce()
			if err != nil {
				return err
			}
			h.close()
			if err := os.RemoveAll(roundDir(e, round-1)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := spareSetups(perGroup - 1); err != nil {
		return nil, err
	}
	h, warm, err := setupOnce()
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			h.close()
		}
	}()
	res.attempted += len(p.sessions) * (1 + int(e.param("warm_feeds")))

	sampler := startRuntimeSampler(e.tr)
	defer sampler.stop()
	// Every timed phase starts from a collected heap, as Go's own
	// benchmarks do, so that a collection the set-up left due does not
	// land in one run's phase and not another's.
	runtime.GC()
	var open []outcome
	if e.traced {
		// Alternate untraced and traced quarters of the open loop, so that
		// drift over the phase does not read as tracing overhead.
		var base, traced []float64
		n := len(p.open)
		for q := 0; q < 4; q++ {
			reqs := p.open[q*n/4 : (q+1)*n/4]
			tr := e.off
			if q%2 == 1 {
				tr = e.tr
			}
			out := openLoop(reqs, p.interval, e.conns, h.routed, tr)
			if q%2 == 1 {
				traced = append(traced, feedLatencies(reqs, out)...)
			} else {
				base = append(base, feedLatencies(reqs, out)...)
			}
			open = append(open, out...)
		}
		res.set("bench.trace_overhead_pct", 100*(median(traced)-median(base))/median(base), len(traced))
	} else {
		open = openLoop(p.open, p.interval, e.conns, h.routed, e.tr)
	}
	res.attempted += len(open)
	feeds := feedLatencies(p.open, open)
	res.set("op_p50_ms", windowedPercentile(feeds, 0.5), len(feeds))
	// Tails are printed, not gated: on a 2-CPU host shared with other
	// machines, slow spells covering most of an open loop moved feed p95
	// 2-3x between runs of the same code (p99 more), far beyond any
	// regression bound, while the medians moved a few percent.
	res.note("info: feed p95 %.4f ms, p99 %.4f ms (n=%d, not a gated metric)",
		windowedPercentile(feeds, 0.95), windowedPercentile(feeds, 0.99), len(feeds))

	// Restarts come between the open loop and the saturation phase, so
	// that every session's log holds a seed-determined number of records
	// at each restart and no compaction has run yet.
	if shape.durable {
		restarts := int(e.param("restarts"))
		if e.traced {
			restarts = 1
		}
		var recovers []float64
		for r := 0; r < restarts; r++ {
			d, err := restartAndCompare(e, h, p, res)
			if err != nil {
				return nil, err
			}
			recovers = append(recovers, ms(d))
		}
		res.set("aux_p50_ms", median(recovers), len(recovers))
	} else {
		var reads []float64
		for i, r := range p.open {
			if r.kind != kindFeed && open[i].ok() {
				reads = append(reads, ms(open[i].Latency()))
			}
		}
		res.set("aux_p50_ms", windowedPercentile(reads, 0.5), len(reads))
		res.note("info: read p95 %.4f ms, p99 %.4f ms (n=%d, not a gated metric)",
			windowedPercentile(reads, 0.95), windowedPercentile(reads, 0.99), len(reads))
	}

	runtime.GC()
	sat := closedLoop(p.sat, e.conns, h.routed, e.tr)
	res.attempted += len(sat)
	res.set("op_per_s", throughput(sat), len(sat))
	if err := setPeakRSS(res); err != nil {
		return nil, err
	}
	sampler.record(res)
	if !e.traced {
		if err := spareSetups(perGroup); err != nil {
			return nil, err
		}
	}

	if e.traced {
		if err := probeLayers(e, h, p, shape); err != nil {
			return nil, err
		}
	}
	refs, err := checkServing(e, p, warm, open, sat, res)
	if err != nil {
		return nil, err
	}
	if e.traced {
		rows := 0
		for _, ref := range refs {
			rows += ref.windowN()
		}
		res.set("stream.window_rows", float64(rows), len(refs))
	}
	h.close()
	closed = true
	if e.traced && shape.durable {
		if err := scanDataDirs(e, h, res); err != nil {
			return nil, err
		}
	}
	if !e.traced {
		if err := spareSetups(perGroup); err != nil {
			return nil, err
		}
	}
	res.set("setup_s", median(setups), len(setups))
	return res, nil
}

// maxWindows is how many consecutive windows a phase's samples are split
// into for windowedPercentile: enough that a slow spell of the host
// covering a third of the phase leaves the median window clean.
const maxWindows = 12

// windowedPercentile splits samples, in schedule order, into up to
// maxWindows consecutive windows that each keep at least ten samples
// beyond the q-quantile, and returns the median of the windows'
// nearest-rank q-quantiles: a stall confined to one window moves the
// figure less than a whole-run percentile, so runs repeat more closely.
// With too few samples for even one such window it falls back to the
// highest percentile that keeps ten samples beyond it, and to the median
// below twenty samples.
func windowedPercentile(xs []float64, q float64) float64 {
	perWindow := int(math.Ceil(10 / (1 - q)))
	k := min(maxWindows, len(xs)/perWindow)
	if k == 0 {
		return percentile(xs, max(0.5, 1-10/float64(len(xs))))
	}
	var ps []float64
	for w := 0; w < k; w++ {
		ps = append(ps, percentile(xs[w*len(xs)/k:(w+1)*len(xs)/k], q))
	}
	return median(ps)
}

// throughput returns the successful calls of a closed-loop phase per
// second of the phase, from the first send to the last answer. The phase
// is a fixed amount of work, compactions included, so the rate covers all
// of it.
func throughput(out []outcome) float64 {
	start, end := out[0].Sent, out[0].Done
	ok := 0
	for i := range out {
		if out[i].Sent.Before(start) {
			start = out[i].Sent
		}
		if out[i].Done.After(end) {
			end = out[i].Done
		}
		if out[i].ok() {
			ok++
		}
	}
	return float64(ok) / end.Sub(start).Seconds()
}

// feedLatencies returns the due-time latencies, in ms, of the successful
// feeds among reqs.
func feedLatencies(reqs []*request, out []outcome) []float64 {
	var xs []float64
	for i, r := range reqs {
		if r.kind == kindFeed && out[i].ok() {
			xs = append(xs, ms(out[i].Latency()))
		}
	}
	return xs
}

// fetchReports reads every session's reports body through the router.
func fetchReports(h *fleetHarness, p *servingPlan) ([][]byte, error) {
	out := make([][]byte, len(p.sessions))
	for i, s := range p.sessions {
		body, err := h.call(&request{path: sessionPath(s.name) + "/reports"})
		if err != nil {
			return nil, err
		}
		out[i] = body
	}
	return out, nil
}

// restartAndCompare closes and reopens every member, waits until every
// session answers through the router again, and checks that each
// session's reports body is byte-identical to the one before the restart.
// It returns the recovery time, from reopening to every session serving.
func restartAndCompare(e *env, h *fleetHarness, p *servingPlan, res *result) (time.Duration, error) {
	before, err := fetchReports(h, p)
	if err != nil {
		return 0, err
	}
	for _, m := range h.members {
		m.stop()
	}
	h.peers.CloseIdleConnections()
	runtime.GC()
	start := time.Now()
	if err := h.reopen(e.tr); err != nil {
		return 0, err
	}
	for _, s := range p.sessions {
		if _, err := h.call(&request{path: sessionPath(s.name)}); err != nil {
			return 0, fmt.Errorf("session %s after restart: %w", s.name, err)
		}
	}
	recovered := time.Since(start)
	after, err := fetchReports(h, p)
	if err != nil {
		return 0, err
	}
	res.attempted += 3 * len(p.sessions)
	for i := range before {
		if !bytes.Equal(before[i], after[i]) {
			res.mismatch("session %s: reports body differs after restart", p.sessions[i].name)
		}
	}
	return recovered, nil
}

// checkServing replays every session's feeds, in the order the member
// applied them, through a reference monitor and compares each report the
// fleet returned — from feeds and from reports reads — bit for bit. It
// returns the reference monitors.
func checkServing(e *env, p *servingPlan, warm [][]outcome, open, sat []outcome, res *result) ([]*refMonitor, error) {
	got := make([][]served, len(p.sessions))
	add := func(r *request, o *outcome) {
		if !o.ok() {
			res.failed++
			return
		}
		var fr feedResponse
		if err := json.Unmarshal(o.Body, &fr); err != nil || fr.Report == nil {
			res.mismatch("session %s batch %d: feed answer without a report", p.sessions[r.sess].name, r.batch)
			return
		}
		got[r.sess] = append(got[r.sess], served{batch: r.batch, rep: *fr.Report})
	}
	for i := range warm {
		for k := range warm[i] {
			add(p.warm[i][k], &warm[i][k])
		}
	}
	var reads []int
	for i, r := range p.open {
		if r.kind == kindFeed {
			add(r, &open[i])
		} else if open[i].ok() {
			reads = append(reads, i)
		} else {
			res.failed++
		}
	}
	for i, r := range p.sat {
		add(r, &sat[i])
	}

	refs := make([]*refMonitor, len(p.sessions))
	want := make([][]serve.ReportJSON, len(p.sessions))
	var mu sync.Mutex
	err := eachParallel(len(p.sessions), e.conns, func(i int) error {
		s := p.sessions[i]
		ref, err := s.newRef(e.tr)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", s.name, err)
		}
		refs[i] = ref
		g := got[i]
		sort.Slice(g, func(a, b int) bool { return g[a].rep.Seq < g[b].rep.Seq })
		for k, sv := range g {
			rep, err := ref.ingest(s.batches[sv.batch])
			if err != nil {
				return fmt.Errorf("reference ingest for %s: %w", s.name, err)
			}
			w := wireReport(rep)
			want[i] = append(want[i], w)
			if sv.rep.Seq != k || !sameReport(w, sv.rep) {
				mu.Lock()
				res.mismatch("session %s seq %d: member reported %+v, reference %+v", s.name, sv.rep.Seq, sv.rep, w)
				mu.Unlock()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, i := range reads {
		checkRead(p, p.open[i], open[i].Body, want, res)
	}
	return refs, nil
}

// checkRead compares a reports read against the reference reports, and a
// summary read against the session count.
func checkRead(p *servingPlan, r *request, body []byte, want [][]serve.ReportJSON, res *result) {
	if r.kind == kindSummary {
		var sum serve.ShardSummary
		if err := json.Unmarshal(body, &sum); err != nil || sum.Sessions != len(p.sessions) {
			res.mismatch("summary read: %d sessions, want %d (%v)", sum.Sessions, len(p.sessions), err)
		}
		return
	}
	name := p.sessions[r.sess].name
	var rr reportsResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		res.mismatch("reports read of %s: %v", name, err)
		return
	}
	alerts := 0
	for _, rep := range rr.Reports {
		if rep.Seq < 0 || rep.Seq >= len(want[r.sess]) || !sameReport(rep, want[r.sess][rep.Seq]) {
			res.mismatch("reports read of %s: report seq %d differs from the reference", name, rep.Seq)
			return
		}
	}
	if n := len(rr.Reports); n > 0 {
		for _, w := range want[r.sess][:rr.Reports[n-1].Seq+1] {
			if w.Alert {
				alerts++
			}
		}
	}
	if alerts != rr.Alerts {
		res.mismatch("reports read of %s: %d alerts, reference %d", name, rr.Alerts, alerts)
	}
}

// runtimeSampler samples the Go runtime during a traced run's timed
// phases.
type runtimeSampler struct {
	stopc    chan struct{}
	done     chan struct{}
	once     sync.Once
	pause0   uint64
	heapMax  uint64
	goroMax  int
	disabled bool
}

func startRuntimeSampler(tr *Tracer) *runtimeSampler {
	s := &runtimeSampler{stopc: make(chan struct{}), done: make(chan struct{}), disabled: !tr.on}
	if s.disabled {
		close(s.done)
		return s
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pause0 = ms.PauseTotalNs
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *runtimeSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.heapMax = max(s.heapMax, ms.HeapInuse)
	s.goroMax = max(s.goroMax, runtime.NumGoroutine())
}

// stop ends sampling and waits for the sampling goroutine; it may be
// called more than once.
func (s *runtimeSampler) stop() {
	s.once.Do(func() { close(s.stopc) })
	<-s.done
}

// record stops sampling and records the go.* metrics of a traced run.
func (s *runtimeSampler) record(res *result) {
	s.stop()
	if s.disabled {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("go.gc_pause_total_ms", float64(ms.PauseTotalNs-s.pause0)/1e6, int(ms.NumGC))
	res.set("go.heap_inuse_mb", float64(s.heapMax)/(1<<20), 1)
	res.set("go.goroutines_max", float64(s.goroMax), 1)
}

// scanDataDirs opens every write-ahead log left in the durable members'
// data directories with wal.Open, as a restart's replay would, and counts
// the compactions each session ran from its log generation number.
func scanDataDirs(e *env, h *fleetHarness, res *result) error {
	compactions, maxRecords := 0, 0
	var replay time.Duration
	for _, m := range h.members {
		logs, err := filepath.Glob(filepath.Join(m.dir, "sessions", "*", "wal.*.log"))
		if err != nil {
			return err
		}
		for _, path := range logs {
			gen, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "wal."), ".log"))
			if err != nil {
				return fmt.Errorf("wal file name %s: %w", path, err)
			}
			compactions += gen - 1
			var w *wal.Writer
			var recs [][]byte
			replay += e.tr.Time("wal.replay", func() { w, recs, err = wal.Open(path) })
			if err != nil {
				return err
			}
			if err := w.Close(); err != nil {
				return err
			}
			maxRecords = max(maxRecords, len(recs))
		}
	}
	res.set("serve.compactions", float64(compactions), 1)
	res.set("wal.live_records_max", float64(maxRecords), 1)
	res.set("wal.replay_s", replay.Seconds(), 1)
	return nil
}
