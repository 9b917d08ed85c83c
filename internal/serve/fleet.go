package serve

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file is the member-side half of the multi-node serving subsystem
// (internal/fleet): the streaming session list, the per-shard mergeable
// drift summary, and snapshot-transfer session migration (export, import,
// resume). The router never pulls raw rows off a shard — fleet-wide views
// are built from these summaries, merged centrally.

// ShardSummary is one node's mergeable drift summary: pure counts, maxima
// and sums over its sessions, so a fleet of shards can be combined by
// Merge without any raw rows (or even per-session states) leaving their
// shard. All fields are totals across the shard's live sessions; Reported
// counts the sessions that have emitted at least one report, making the
// fleet-wide mean deviation SumDeviation/Reported.
type ShardSummary struct {
	Sessions int `json:"sessions"`
	// Models counts sessions per model class name.
	Models map[string]int `json:"models,omitempty"`
	// Reports and Alerts total the emissions and threshold alerts.
	Reports int `json:"reports"`
	Alerts  int `json:"alerts"`
	// Reported counts sessions with at least one emission; Alerting counts
	// sessions whose most recent emission alerted.
	Reported int `json:"reported"`
	Alerting int `json:"alerting"`
	// WindowRows totals the rows held in live windows.
	WindowRows int `json:"window_rows"`
	// SumDeviation and MaxDeviation aggregate the most recent deviation of
	// every reported session.
	SumDeviation float64 `json:"sum_deviation"`
	MaxDeviation float64 `json:"max_deviation"`
	// MaxEpoch is the newest batch epoch any session has seen.
	MaxEpoch int64 `json:"max_epoch"`
}

// Merge folds other into s: counts and sums add, maxima take the larger.
func (s *ShardSummary) Merge(other ShardSummary) {
	s.Sessions += other.Sessions
	for model, n := range other.Models {
		if s.Models == nil {
			s.Models = make(map[string]int)
		}
		s.Models[model] += n
	}
	s.Reports += other.Reports
	s.Alerts += other.Alerts
	s.Reported += other.Reported
	s.Alerting += other.Alerting
	s.WindowRows += other.WindowRows
	s.SumDeviation += other.SumDeviation
	if other.MaxDeviation > s.MaxDeviation {
		s.MaxDeviation = other.MaxDeviation
	}
	if other.MaxEpoch > s.MaxEpoch {
		s.MaxEpoch = other.MaxEpoch
	}
}

// Summary aggregates the shard's live sessions into a mergeable summary.
// Sessions deleted mid-walk are simply omitted, exactly as in the list
// endpoint.
func (r *Registry) Summary() ShardSummary {
	var sum ShardSummary
	for _, s := range r.snapshotSessions() {
		st, err := s.State()
		if err != nil {
			continue // deleted between the snapshot and the walk
		}
		sum.Sessions++
		if sum.Models == nil {
			sum.Models = make(map[string]int)
		}
		sum.Models[st.Model]++
		sum.Reports += st.Reports
		sum.Alerts += st.Alerts
		sum.WindowRows += st.WindowN
		if st.Epoch > sum.MaxEpoch {
			sum.MaxEpoch = st.Epoch
		}
		if st.LastReport != nil {
			sum.Reported++
			sum.SumDeviation += st.LastReport.Deviation
			if st.LastReport.Alert {
				sum.Alerting++
			}
			if st.LastReport.Deviation > sum.MaxDeviation {
				sum.MaxDeviation = st.LastReport.Deviation
			}
		}
	}
	return sum
}

// snapshotSessions returns the live sessions in sorted name order without
// holding the registry lock across any per-session work.
func (r *Registry) snapshotSessions() []*Session {
	names := r.Names()
	sessions := make([]*Session, 0, len(names))
	for _, name := range names {
		if s, ok := r.Get(name); ok {
			sessions = append(sessions, s)
		}
	}
	return sessions
}

// WriteList streams the session-list response body to w: the same
// {"sessions":[...]} document the list endpoint has always served, but
// encoded one session at a time. The registry lock is held only long
// enough to snapshot the name list — never across session state calls or
// the writes themselves — so a scatter-gathering router listing a large
// shard cannot stall creates and deletes behind response serialization.
func (r *Registry) WriteList(w io.Writer) error {
	if _, err := io.WriteString(w, `{"sessions":[`); err != nil {
		return err
	}
	wrote := 0
	for _, s := range r.snapshotSessions() {
		st, err := s.State()
		if err != nil {
			continue // deleted between the snapshot and the walk
		}
		data, err := json.Marshal(st)
		if err != nil {
			return err
		}
		if wrote > 0 {
			if _, err := w.Write([]byte{','}); err != nil {
				return err
			}
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		wrote++
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// exportVersion is the version of the SessionExport document. It is not
// the snapshot format version: members of different versions exchange
// exports during a rolling upgrade, so it changes only with the document.
const exportVersion = 1

// SessionExport is the transferable form of one session: its create-time
// config plus the sealed live state — window batches, report ring and
// counters — exactly what a compaction would bake into the on-disk
// snapshot, with the WAL tail already folded in. A session imported from
// it resumes bit-identically: reports, alerts and the qualification RNG
// stream all continue as if the session had never moved.
type SessionExport struct {
	Version int               `json:"version"`
	Config  json.RawMessage   `json:"config"`
	Monitor *monitorStateJSON `json:"monitor,omitempty"`
	Reports []ReportJSON      `json:"reports,omitempty"`
	Alerts  int               `json:"alerts,omitempty"`
	Last    *ReportJSON       `json:"last,omitempty"`
}

// Export seals the session's live state into a transferable document.
// With drain set the session additionally stops accepting feeds (503 with
// Retry-After) until Resume, Delete, or process exit — the migration
// window: nothing can mutate the state between the export and the moment
// the new owner takes over. A deleted session answers 404.
func (s *Session) Export(drain bool) (*SessionExport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, notFound(s.name)
	}
	cfg, err := s.exportConfig()
	if err != nil {
		return nil, fmt.Errorf("exporting config: %w", err)
	}
	ms, err := s.exportMonitor()
	if err != nil {
		return nil, fmt.Errorf("exporting window state: %w", err)
	}
	exp := &SessionExport{
		Version: exportVersion,
		Config:  cfg,
		Monitor: ms,
		Alerts:  s.alerts,
	}
	if len(s.reports) > 0 {
		exp.Reports = make([]ReportJSON, len(s.reports))
		copy(exp.Reports, s.reports)
	}
	if s.last != nil {
		cp := *s.last
		exp.Last = &cp
	}
	if drain {
		s.draining = true
	}
	return exp, nil
}

// exportConfig rebuilds the session's create config: the config without
// its reference, with the reference rows encoded back from the decoded
// ones the monitor holds. Their values are bit-identical to the rows the
// session was created with; the bytes need not be the client's.
func (s *Session) exportConfig() (json.RawMessage, error) {
	ref, err := s.refJSON()
	if err != nil || ref == nil {
		return s.cfgRaw, err
	}
	var cfg SessionConfig
	if err := json.Unmarshal(s.cfgRaw, &cfg); err != nil {
		return nil, err
	}
	cfg.Reference = ref
	return json.Marshal(&cfg)
}

// Resume lifts a migration drain: feeds are accepted again. It is the
// rollback path of a failed migration; resuming a session that is not
// draining is a no-op. A deleted session answers 404.
func (s *Session) Resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return notFound(s.name)
	}
	s.draining = false
	return nil
}

// Import registers a session from an exported document: the config is
// rebound exactly as Create would, then the sealed window state, report
// ring and counters are reinstated. On a durable registry the imported
// state is persisted as a full snapshot plus a fresh WAL generation
// before the session is published, so a crash immediately after the
// import acknowledgement loses nothing. The usual Create errors apply
// (400 on bad config, 409 on a name collision).
func (r *Registry) Import(exp *SessionExport) (*Session, error) {
	if exp.Version != exportVersion {
		return nil, badRequest(fmt.Sprintf("export version %d not supported", exp.Version))
	}
	var cfg SessionConfig
	if err := json.Unmarshal(exp.Config, &cfg); err != nil {
		return nil, badRequest(fmt.Sprintf("decoding exported config: %v", err))
	}
	if err := validName(cfg.Name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if _, ok := r.sessions[cfg.Name]; ok {
		r.mu.Unlock()
		return nil, duplicate(cfg.Name)
	}
	if _, ok := r.reserved[cfg.Name]; ok {
		r.mu.Unlock()
		return nil, duplicate(cfg.Name)
	}
	r.reserved[cfg.Name] = struct{}{}
	r.mu.Unlock()
	unreserve := func() {
		r.mu.Lock()
		delete(r.reserved, cfg.Name)
		r.mu.Unlock()
	}

	s, err := r.bind(cfg, nil, nil)
	if err != nil {
		unreserve()
		return nil, err
	}
	s.mu.Lock()
	if exp.Monitor != nil {
		if err := s.restoreMonitor(exp.Monitor); err != nil {
			s.mu.Unlock()
			unreserve()
			return nil, badRequest(fmt.Sprintf("restoring window state: %v", err))
		}
	}
	s.reports, s.alerts, s.last = exp.Reports, exp.Alerts, exp.Last
	if r.store != nil {
		if err := s.persistNew(r.store); err != nil {
			s.mu.Unlock()
			unreserve()
			return nil, fmt.Errorf("persisting imported session %q: %w", cfg.Name, err)
		}
	}
	s.mu.Unlock()

	r.mu.Lock()
	delete(r.reserved, cfg.Name)
	r.sessions[cfg.Name] = s
	r.mu.Unlock()
	return s, nil
}
