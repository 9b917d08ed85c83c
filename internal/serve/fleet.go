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

// Export seals the session's live state into its image: the snapshot a
// compaction would write, with the WAL tail already folded in and no WAL
// generation named (see persist.go). A session imported from it resumes
// bit-identically: reports, alerts and the qualification RNG stream all
// continue as if the session had never moved. With drain set the session
// additionally stops accepting feeds (503 with Retry-After) until Resume,
// Delete, or process exit — the migration window: nothing can mutate the
// state between the export and the moment the new owner takes over. A
// deleted session answers 404.
func (s *Session) Export(drain bool) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, notFound(s.name)
	}
	img, err := s.sealSnapshot(0, s.pinned())
	if err != nil {
		return nil, fmt.Errorf("sealing session image: %w", err)
	}
	if drain {
		s.draining = true
	}
	return img, nil
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

// Import registers the session name from its image: any image restore
// accepts, whatever WAL generation it names — an export of this version,
// or the version-1 JSON export document of older members. The image's
// config must name the session name. On a durable registry the imported
// state is persisted as a full snapshot plus a fresh WAL generation before
// the session is published, so a crash immediately after the import
// acknowledgement loses nothing. An image that does not bind answers 400
// (an unsupported version included), a name collision 409.
func (r *Registry) Import(name string, image []byte) (*Session, error) {
	return r.admit(name, func() (*Session, error) {
		s, _, _, err := r.bindImage(image, name)
		if err != nil {
			return nil, badRequest(fmt.Sprintf("importing session image: %v", err))
		}
		return s, nil
	})
}
