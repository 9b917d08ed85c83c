// Package serve is the serving subsystem of the framework: a multi-tenant
// registry of named monitor sessions exposed as an HTTP/JSON API. Each
// session wraps one incremental windowed monitor (internal/stream) over one
// model class — lits, dt (pinned tree) or cluster — created with a pinned
// reference and a window/emission policy, fed batches of rows, and queried
// for reports, alerts and window state. Command focusd serves a Registry
// over HTTP; see Registry.Handler for the endpoint table.
//
// Sessions are independent and concurrency-safe: the registry serializes
// create/delete, each session serializes its own intake (on top of the
// monitor's own lock), and any number of clients may feed and query any
// number of sessions concurrently.
package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"focus/internal/apriori"
	"focus/internal/cluster"
	"focus/internal/core"
	"focus/internal/dtree"
	"focus/internal/stream"
	"focus/internal/txn"
)

// DefaultMaxReports is the number of recent reports a session retains for
// the reports endpoint.
const DefaultMaxReports = 256

// Registry is a multi-tenant collection of named monitor sessions. Create
// one with NewRegistry (in-memory) or OpenRegistry (durable); it is safe
// for concurrent use.
type Registry struct {
	mu         sync.RWMutex
	sessions   map[string]*Session // guarded by mu
	reserved   map[string]struct{} // names mid-Create (bound outside the lock); guarded by mu
	maxReports int
	store      *Store // nil: sessions live and die with the process

	// draining is set when the process begins its shutdown drain: the
	// health endpoint answers 503 with Retry-After so routers and load
	// balancers stop sending new work before the listener closes.
	draining atomic.Bool
}

// SetDraining marks the registry as draining (or not): while set, the
// health endpoint answers 503 with a Retry-After header. focusd sets it
// when a shutdown signal arrives, before the HTTP server stops accepting
// connections.
func (r *Registry) SetDraining(v bool) { r.draining.Store(v) }

// Draining reports whether the registry is draining for shutdown.
func (r *Registry) Draining() bool { return r.draining.Load() }

// NewRegistry returns an empty in-memory registry retaining
// DefaultMaxReports recent reports per session.
func NewRegistry() *Registry {
	return &Registry{
		sessions:   make(map[string]*Session),
		reserved:   make(map[string]struct{}),
		maxReports: DefaultMaxReports,
	}
}

// Session is one named monitor session. Its intake and queries are safe for
// concurrent use.
type Session struct {
	name  string
	model string

	mu       sync.Mutex
	closed   bool // deleted: feeds and queries answer 404, nothing persists; guarded by mu
	draining bool // migration drain: feeds answer 503 with Retry-After until Resume; guarded by mu
	// cfgRaw is the session's create config without its reference rows,
	// as json.Marshal wrote it at create (or as a v2 snapshot holds it):
	// what a snapshot header carries. The reference itself lives in the
	// monitor's reference window. Set by bind, immutable.
	cfgRaw json.RawMessage
	// decode turns wire rows into a batch of the session's model class (a
	// 400 when they do not decode or hold no row); ingest advances the
	// monitor with a decoded batch. Feed runs decode, logs the batch, then
	// ingests it; WAL replay ingests the logged batch directly.
	decode  func(rows json.RawMessage) (batch, error)
	ingest  func(epoch *int64, b batch) (*stream.Report, error)
	state   func() (epoch int64, batches, n, reports int)
	last    *ReportJSON  // guarded by mu
	reports []ReportJSON // ring of recent emissions, oldest first; guarded by mu
	alerts  int          // guarded by mu
	max     int

	store *sessionStore // nil: in-memory session; guarded by mu
	// appendWindow and restoreWindow bridge the generic monitor state to
	// its binary form in a snapshot; restoreMonitor reads its JSON form in
	// a version-1 image. bindSession installs them per model class.
	appendWindow   func(buf []byte) []byte
	restoreWindow  func(b []byte) error
	restoreMonitor func(*monitorStateJSON) error
	// pinned encodes the pinned reference rows and, for dt sessions, the
	// pinned tree in their snapshot form (nil when absent).
	pinned func() pinnedSections
	// appendRecord frames a decoded feed as a binary WAL record;
	// readRecord reads one back (see persist.go for the format).
	appendRecord func(buf []byte, epoch *int64, b batch) []byte
	readRecord   func(rec []byte) (epoch *int64, b batch, err error)
}

// batch is one decoded batch of a session's model class: a *txn.Dataset
// for lits sessions, a *dataset.Dataset for dt and cluster sessions.
type batch = any

// Create validates cfg, builds the model class and monitor, and registers
// the session under cfg.Name. It fails with a client error (statusError 400)
// on any invalid configuration, schema, or reference payload, and with 409
// when the name is taken.
func (r *Registry) Create(cfg SessionConfig) (*Session, error) {
	return r.admit(cfg.Name, func() (*Session, error) { return r.bind(cfg, nil, nil) })
}

// admit registers the session bind builds under name, the path Create and
// Import share. The name is reserved under the registry lock before the
// expensive bind — growing a pinned DT tree or mining a lits reference can
// dwarf the request parse — so a duplicate 409s immediately instead of
// burning a full model build first, and two racing requests for one name
// do the work exactly once. The bind itself runs outside the lock; on a
// durable registry the session is then persisted, and the name is
// published on success and released on any failure.
func (r *Registry) admit(name string, bind func() (*Session, error)) (*Session, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if _, ok := r.sessions[name]; ok {
		r.mu.Unlock()
		return nil, duplicate(name)
	}
	if _, ok := r.reserved[name]; ok {
		r.mu.Unlock()
		return nil, duplicate(name)
	}
	r.reserved[name] = struct{}{}
	r.mu.Unlock()
	unreserve := func() {
		r.mu.Lock()
		delete(r.reserved, name)
		r.mu.Unlock()
	}

	s, err := bind()
	if err != nil {
		unreserve()
		return nil, err
	}
	if r.store != nil {
		// The session is not yet published, but install the store under its
		// lock anyway: the invariant "s.store moves only under s.mu" then
		// holds unconditionally instead of leaning on the publication
		// ordering through r.mu below.
		s.mu.Lock()
		err := s.persistNew(r.store)
		s.mu.Unlock()
		if err != nil {
			unreserve()
			return nil, fmt.Errorf("persisting session %q: %w", name, err)
		}
	}
	r.mu.Lock()
	delete(r.reserved, name)
	r.sessions[name] = s
	r.mu.Unlock()
	return s, nil
}

func duplicate(name string) error {
	return &statusError{code: 409, msg: fmt.Sprintf("session %q already exists", name)}
}

// bind builds the session's model class, monitor and codec closures from a
// validated-name config — the expensive part of Create, run outside the
// registry lock. A session bound from a v2 snapshot, restored or
// imported, passes the snapshot's raw config (which holds no reference
// rows) and its pinned sections, so the reference decodes from binary rows
// and a dt session's tree from its encoding instead of being grown again;
// otherwise cfgRaw and pin are nil, the reference decodes from
// cfg.Reference and a dt tree is grown from it.
func (r *Registry) bind(cfg SessionConfig, cfgRaw json.RawMessage, pin *pinnedSections) (*Session, error) {
	if cfgRaw == nil {
		noRef := cfg
		noRef.Reference = nil
		var err error
		if cfgRaw, err = json.Marshal(&noRef); err != nil {
			return nil, badRequest(err.Error())
		}
	}
	s := &Session{name: cfg.Name, model: cfg.Model, max: r.maxReports, cfgRaw: cfgRaw}
	var err error
	switch cfg.Model {
	case "lits":
		err = bindLits(s, &cfg, pin)
	case "dt":
		err = bindDT(s, &cfg, pin)
	case "cluster":
		err = bindCluster(s, &cfg, pin)
	default:
		return nil, badRequest(fmt.Sprintf("unknown model %q (want lits, dt or cluster)", cfg.Model))
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// validName admits names every per-session endpoint can address: URL-safe
// characters only, starting with a letter or digit (which also excludes
// the "." and ".." path segments ServeMux would clean away).
func validName(name string) error {
	if name == "" {
		return badRequest("session name required")
	}
	if len(name) > 128 {
		return badRequest("session name longer than 128 bytes")
	}
	for i, c := range name {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return badRequest("session name must start with a letter or digit")
		}
		if !alnum && c != '.' && c != '_' && c != '-' {
			return badRequest("session name may contain only letters, digits, '.', '_' and '-'")
		}
	}
	return nil
}

// Get returns the named session.
func (r *Registry) Get(name string) (*Session, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sessions[name]
	return s, ok
}

// Delete removes the named session, reporting whether it existed. The
// session is closed under its own lock before its durable state is
// removed, so an in-flight Feed either completes entirely before the
// delete or observes the closed flag and 404s — a feed can never mutate
// the monitor, the report ring, or the write-ahead log of a deleted
// session.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	s, ok := r.sessions[name]
	delete(r.sessions, name)
	r.mu.Unlock()
	if !ok {
		return false
	}
	s.close()
	if r.store != nil {
		r.store.remove(name)
	}
	return true
}

// close marks the session deleted and releases its durable state handle.
func (s *Session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.store != nil {
		s.store.close()
		s.store = nil
	}
}

// Close flushes and closes the durable state of every session. It is the
// graceful-shutdown hook of a durable registry (focusd calls it after the
// HTTP server drains); sessions refuse intake afterwards. In-memory
// registries have nothing to flush.
func (r *Registry) Close() error {
	r.mu.Lock()
	// Flush in sorted name order: shutdown work (WAL flushes, future
	// per-session close hooks) then runs in a deterministic order rather
	// than the randomized map iteration order.
	names := make([]string, 0, len(r.sessions))
	for name := range r.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	sessions := make([]*Session, 0, len(names))
	for _, name := range names {
		sessions = append(sessions, r.sessions[name])
	}
	r.mu.Unlock()
	for _, s := range sessions {
		s.close()
	}
	return nil
}

// Names returns the registered session names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.sessions))
	for name := range r.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// monitorConfig assembles the monitor configuration shared by every model
// class. The window policy defaults to a sliding window of one batch:
// every batch emits a report against the pinned reference.
func monitorConfig(cfg *SessionConfig) (core.Config, error) {
	f, g := cfg.F, cfg.G
	if f == "" {
		f = "fa"
	}
	if g == "" {
		g = "sum"
	}
	df, err := core.DiffByName(f)
	if err != nil {
		return core.Config{}, badRequest(err.Error())
	}
	ag, err := core.AggByName(g)
	if err != nil {
		return core.Config{}, badRequest(err.Error())
	}
	window := cfg.Window
	if window == 0 && cfg.EpochWindow == 0 {
		window = 1
	}
	return core.Config{
		F:              df,
		G:              ag,
		Parallelism:    cfg.Parallelism,
		WindowBatches:  window,
		Tumbling:       cfg.Tumbling,
		EpochWindow:    cfg.EpochWindow,
		PreviousWindow: cfg.PreviousWindow,
		Threshold:      cfg.Threshold,
		Qualify:        cfg.Qualify,
		Replicates:     cfg.Replicates,
		Seed:           cfg.Seed,
	}, nil
}

// rowCodec is a model class's batch codecs: decode reads the JSON rows of
// the wire and of version-1 images, appendBinary and decodeBinary the
// binary form of WAL records and snapshots, logged under tag.
type rowCodec[D any] struct {
	tag          byte
	decode       func(json.RawMessage) (D, error)
	appendBinary func([]byte, D) []byte
	decodeBinary func([]byte) (D, error)
}

// decodeRef decodes a session's reference rows: from the binary section of
// the snapshot it restores from, or else from the config's JSON rows. ok
// is false when the session has no reference.
func decodeRef[D any](codec rowCodec[D], cfg *SessionConfig, pin *pinnedSections) (ref D, ok bool, err error) {
	switch {
	case pin != nil && len(pin.ref) > 0:
		ref, err = codec.decodeBinary(pin.ref)
	case pin == nil && len(cfg.Reference) > 0:
		ref, err = codec.decode(cfg.Reference)
	default:
		return ref, false, nil
	}
	if err != nil {
		return ref, false, badRequest(fmt.Sprintf("reference: %v", err))
	}
	return ref, true, nil
}

// bindSession wires a monitor of any model class into the session's
// dynamically typed intake, state and persistence closures — the one
// generic-to-JSON boundary of the serving layer. tree is a dt session's
// pinned tree, nil for the other model classes.
func bindSession[D, M any](s *Session, mc core.ModelClass[D, M], ref D, hasRef bool, tree *dtree.Tree, mcfg core.Config, codec rowCodec[D]) error {
	if !hasRef && !mcfg.PreviousWindow {
		return badRequest("reference rows required unless previous_window is set")
	}
	if hasRef && mc.Len(ref) == 0 {
		return badRequest("reference rows must be non-empty")
	}
	mon, err := stream.New(mc, ref, mcfg)
	if err != nil {
		return badRequest(err.Error())
	}
	s.decode = func(rows json.RawMessage) (batch, error) {
		b, err := codec.decode(rows)
		if err != nil {
			return nil, badRequest(err.Error())
		}
		// An empty batch would read as maximal drift (every region's window
		// measure 0); a heartbeat or buggy producer gets a 400, not an
		// alert.
		if mc.Len(b) == 0 {
			return nil, badRequest("rows must hold at least one row")
		}
		return b, nil
	}
	s.ingest = func(epoch *int64, b batch) (*stream.Report, error) {
		var rep *stream.Report
		var err error
		if epoch != nil {
			rep, err = mon.IngestEpoch(*epoch, b.(D))
		} else {
			rep, err = mon.Ingest(b.(D))
		}
		if err != nil {
			return nil, badRequest(err.Error())
		}
		return rep, nil
	}
	s.appendRecord = func(buf []byte, epoch *int64, b batch) []byte {
		return codec.appendBinary(appendRecordHeader(buf, codec.tag, epoch), b.(D))
	}
	s.readRecord = func(rec []byte) (*int64, batch, error) {
		epoch, body, err := parseRecordHeader(rec, codec.tag)
		if err != nil {
			return nil, nil, err
		}
		b, err := codec.decodeBinary(body)
		if err != nil {
			return nil, nil, err
		}
		// Feed never logs an empty batch.
		if mc.Len(b) == 0 {
			return nil, nil, fmt.Errorf("record holds no row")
		}
		return epoch, b, nil
	}
	s.state = func() (int64, int, int, int) {
		return mon.Epoch(), mon.WindowBatches(), mon.WindowN(), mon.Reports()
	}
	s.restoreMonitor = func(ms *monitorStateJSON) error {
		st := stream.MonitorState[D]{Epoch: ms.Epoch, Seq: ms.Seq, Epochs: ms.Epochs}
		for i, raw := range ms.Batches {
			b, err := codec.decode(raw)
			if err != nil {
				return fmt.Errorf("window batch %d: %w", i, err)
			}
			st.Batches = append(st.Batches, b)
		}
		if len(ms.RefRows) > 0 {
			d, err := codec.decode(ms.RefRows)
			if err != nil {
				return fmt.Errorf("reference window: %w", err)
			}
			st.RefPromoted, st.RefData = true, d
		}
		return mon.RestoreState(st)
	}
	s.appendWindow = func(buf []byte) []byte {
		return appendWindowState(buf, mon.ExportState(), codec.appendBinary)
	}
	s.restoreWindow = func(b []byte) error {
		st, err := parseWindowState(b, codec.decodeBinary)
		if err != nil {
			return err
		}
		return mon.RestoreState(st)
	}
	s.pinned = func() (pin pinnedSections) {
		if hasRef {
			pin.ref = codec.appendBinary(nil, ref)
		}
		if tree != nil {
			pin.tree = tree.AppendBinary(nil)
		}
		return pin
	}
	return nil
}

func bindLits(s *Session, cfg *SessionConfig, pin *pinnedSections) error {
	if cfg.NumItems < 1 {
		return badRequest("lits session requires num_items >= 1")
	}
	if err := txn.CheckUniverse(cfg.NumItems); err != nil {
		return badRequest(err.Error())
	}
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return badRequest("lits session requires min_support in (0, 1]")
	}
	// The counter field is retired: its valid names all gave bit-identical
	// reports, so one is accepted and ignored, and anything else is still
	// refused.
	if _, err := apriori.ParseCounter(cfg.Counter); err != nil {
		return badRequest(err.Error())
	}
	mcfg, err := monitorConfig(cfg)
	if err != nil {
		return err
	}
	// Capture only the universe size: closing over cfg would pin the whole
	// create payload (including the raw Reference bytes) for the session's
	// lifetime.
	codec := txnCodec(cfg.NumItems)
	ref, hasRef, err := decodeRef(codec, cfg, pin)
	if err != nil {
		return err
	}
	return bindSession(s, core.Lits(cfg.MinSupport), ref, hasRef, nil, mcfg, codec)
}

func bindDT(s *Session, cfg *SessionConfig, pin *pinnedSections) error {
	schema, err := cfg.Schema.Schema()
	if err != nil {
		return badRequest(err.Error())
	}
	if schema.Class < 0 {
		return badRequest("dt session requires a class attribute in the schema")
	}
	mcfg, err := monitorConfig(cfg)
	if err != nil {
		return err
	}
	codec := tupleCodec(schema)
	ref, hasRef, err := decodeRef(codec, cfg, pin)
	if err != nil {
		return err
	}
	if !hasRef {
		return badRequest("dt session requires reference rows (the pinned tree is grown from them)")
	}
	var tree *dtree.Tree
	if pin != nil {
		// The tree grown at create, as the snapshot holds it: a restart
		// never regrows it, so the pinned structure survives any change of
		// the tree engine, and the config's split_search is not read.
		if tree, err = dtree.DecodeBinary(schema, pin.tree); err != nil {
			return fmt.Errorf("pinned tree: %w", err)
		}
	} else {
		// Growing the exact tree for a config that named another split
		// search would silently change the session's model.
		if cfg.SplitSearch != "" && cfg.SplitSearch != "exact" {
			return badRequest(fmt.Sprintf("split_search %q is retired: pinned trees are grown by the exact split search only", cfg.SplitSearch))
		}
		if tree, err = dtree.BuildP(ref, dtree.Config{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf}, cfg.Parallelism); err != nil {
			return badRequest(fmt.Sprintf("growing pinned tree: %v", err))
		}
	}
	return bindSession(s, core.PinnedDT(tree), ref, true, tree, mcfg, codec)
}

func bindCluster(s *Session, cfg *SessionConfig, pin *pinnedSections) error {
	schema, err := cfg.Schema.Schema()
	if err != nil {
		return badRequest(err.Error())
	}
	if len(cfg.GridAttrs) == 0 {
		return badRequest("cluster session requires grid_attrs")
	}
	attrs := make([]int, len(cfg.GridAttrs))
	for i, name := range cfg.GridAttrs {
		j := schema.AttrIndex(name)
		if j < 0 {
			return badRequest(fmt.Sprintf("unknown grid attribute %q", name))
		}
		attrs[i] = j
	}
	bins := cfg.GridBins
	if bins == 0 {
		bins = 8
	}
	grid, err := cluster.NewGrid(schema, attrs, bins)
	if err != nil {
		return badRequest(err.Error())
	}
	mcfg, err := monitorConfig(cfg)
	if err != nil {
		return err
	}
	codec := tupleCodec(schema)
	ref, hasRef, err := decodeRef(codec, cfg, pin)
	if err != nil {
		return err
	}
	return bindSession(s, core.Cluster(grid, cfg.MinDensity), ref, hasRef, nil, mcfg, codec)
}

// Feed ingests one batch into the session and returns the emitted report
// (nil when the window policy suppresses emission). Feeds are serialized
// per session, so retained reports appear in emission order. The rows are
// decoded first, so a batch that does not decode answers 400 and leaves
// no trace. In a durable session the decoded batch is then appended to the
// write-ahead log before ingestion — a crash after the acknowledgement can
// always replay it — and the WAL is compacted into a fresh snapshot once
// the replay debt crosses the registry's threshold. A deleted session
// answers 404.
//
//lint:wal-before-ingest
func (s *Session) Feed(epoch *int64, rows json.RawMessage) (*ReportJSON, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, notFound(s.name)
	}
	if s.draining {
		return nil, drainingError(fmt.Sprintf("session %q is draining for migration", s.name))
	}
	b, err := s.decode(rows)
	if err != nil {
		return nil, err
	}
	if s.store != nil {
		if err := s.store.appendFeed(s.appendRecord(nil, epoch, b)); err != nil {
			return nil, fmt.Errorf("persisting batch: %w", err)
		}
	}
	rj, err := s.feedLocked(epoch, b)
	if err != nil {
		return nil, err
	}
	if s.store != nil && s.store.shouldCompact() {
		// Best-effort: the feed is already durable in the WAL, so a failed
		// compaction degrades replay time, never correctness; the next
		// threshold crossing retries.
		s.compactLocked()
	}
	return rj, nil
}

// feedLocked runs the intake and report-ring update shared by Feed and WAL
// replay on a decoded batch; callers hold s.mu.
//
//lint:holds mu
func (s *Session) feedLocked(epoch *int64, b batch) (*ReportJSON, error) {
	rep, err := s.ingest(epoch, b)
	if err != nil {
		return nil, err
	}
	rj := reportJSON(rep)
	if rj != nil {
		s.last = rj
		if rj.Alert {
			s.alerts++
		}
		s.reports = append(s.reports, *rj)
		if len(s.reports) > s.max {
			s.reports = s.reports[len(s.reports)-s.max:]
		}
	}
	return rj, nil
}

// State snapshots the session; a deleted session answers 404.
func (s *Session) State() (SessionState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SessionState{}, notFound(s.name)
	}
	epoch, batches, n, reports := s.state()
	st := SessionState{
		Name:          s.name,
		Model:         s.model,
		Epoch:         epoch,
		WindowBatches: batches,
		WindowN:       n,
		Reports:       reports,
		Alerts:        s.alerts,
	}
	if s.last != nil {
		cp := *s.last
		st.LastReport = &cp
	}
	return st, nil
}

// Reports returns the retained recent reports (oldest first) and the total
// alert count; a deleted session answers 404.
func (s *Session) Reports() ([]ReportJSON, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, notFound(s.name)
	}
	out := make([]ReportJSON, len(s.reports))
	copy(out, s.reports)
	return out, s.alerts, nil
}
