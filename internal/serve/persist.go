package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"focus/internal/jsonscan"
	"focus/internal/parallel"
	"focus/internal/wal"
)

// This file is the durability layer of the registry: per-session snapshots
// plus a write-ahead log, compacted in generations, replayed on boot.
//
// Layout under the data directory:
//
//	<data>/sessions/<name>/snapshot.json   config + (after compaction) state
//	<data>/sessions/<name>/wal.<gen>.log   batches fed since the snapshot
//
// A session's durable state is always (snapshot, WAL generation named by
// the snapshot): Create writes a config-only snapshot and an empty
// generation-1 WAL; every Feed decodes its rows and appends the decoded
// batch to the WAL, in the binary record form below, before ingestion;
// compaction reseals the accumulated WAL into a new snapshot carrying the
// monitor's window state and the report ring, pointing at the next WAL
// generation. Recovery rebuilds the session from the snapshot (bind from
// config, reinstate window state) and replays the snapshot's WAL
// generation through the same intake step a feed ends in, with no text
// parse — deterministic, so the restored session's State and Reports are
// bit-identical to an uninterrupted run. OpenRegistry restores sessions on
// a pool of parallel.Default() workers; each session restores on its own,
// so the result does not depend on the worker count.
//
// Crash windows resolve by the write order. The new WAL generation is
// created before the snapshot naming it is renamed into place, and the old
// generation is removed only after: whichever snapshot survives, the
// generation it names exists and holds exactly the records not yet baked
// into it; stale generations are swept on boot. Snapshots are written to a
// temporary file, fsynced and renamed, so a torn snapshot write leaves the
// previous one intact. WAL appends reach the kernel before the feed is
// acknowledged, so a SIGKILL never loses an acknowledged batch; torn
// trailing records from a crashed append are dropped by wal.Open.

// snapshotVersion is the on-disk snapshot format version.
const snapshotVersion = 1

// snapshotFile is the per-session snapshot name.
const snapshotFile = "snapshot.json"

// DefaultCompactEvery is the default WAL replay debt, in records, at which
// a session compacts its log into a fresh snapshot.
const DefaultCompactEvery = 256

// Store roots the durable state of a registry. Open one through
// OpenRegistry.
type Store struct {
	dir          string
	compactEvery int
}

// sessionStore is one session's durable state handle. Its methods are
// called under the session lock, which is what guards the mutable fields
// below (the store itself has no lock of its own).
type sessionStore struct {
	dir          string
	gen          uint64      // guarded by Session.mu
	w            *wal.Writer // guarded by Session.mu
	records      int         // records in the current WAL generation; guarded by Session.mu
	compactEvery int
}

// snapshotJSON is the on-disk snapshot: the session's create config
// (verbatim, so the model class is rebuilt deterministically) and — once a
// compaction has run — the monitor window state and report ring at the
// point the WAL was resealed. json.Marshal writes the fields in this
// order, so the config comes before the window state (snapshotConfig
// relies on it).
type snapshotJSON struct {
	Version int `json:"version"`
	// WALGen names the WAL generation holding the feeds after this
	// snapshot.
	WALGen  uint64            `json:"wal_gen"`
	Config  json.RawMessage   `json:"config"`
	Monitor *monitorStateJSON `json:"monitor,omitempty"`
	Reports []ReportJSON      `json:"reports,omitempty"`
	Alerts  int               `json:"alerts,omitempty"`
	Last    *ReportJSON       `json:"last,omitempty"`
}

// restoredSnapshot is a snapshot as restore reads it: the config decoded
// in the same pass as the rest (the outer Config shadows the embedded raw
// one).
type restoredSnapshot struct {
	snapshotJSON
	Config SessionConfig `json:"config"`
}

// monitorStateJSON is the wire form of stream.MonitorState: window batches
// as row payloads in the session's own rows format.
type monitorStateJSON struct {
	Epoch   int64             `json:"epoch"`
	Seq     int               `json:"seq"`
	Epochs  []int64           `json:"epochs,omitempty"`
	Batches []json.RawMessage `json:"batches,omitempty"`
	RefRows json.RawMessage   `json:"ref_rows,omitempty"`
}

// A WAL record is one logged feed: the batch Feed decoded, so replay hands
// it straight to the intake. Its binary form is
//
//	tag    walTuples or walTxns, plus walHasEpoch when the feed had an epoch
//	epoch  a zigzag varint, present with walHasEpoch
//	batch  the rest: dataset.(*Dataset).AppendBinaryRows or
//	       txn.(*Dataset).AppendBinaryRows, values and ids exact
//
// No tag is '{'. Logs written before batches were logged decoded hold the
// JSON object {"epoch":N,"rows":<rows>} ("epoch" omitted when the feed had
// none): framed from the request bytes, or written by json.Marshal in
// older logs still. parseWALRecord reads that envelope, and the rows take
// the decode a live feed takes.
const (
	walTuples   byte = 0x01
	walTxns     byte = 0x02
	walHasEpoch byte = 0x80

	walEpochKey = `{"epoch":`
	walRowsKey  = `"rows":`
)

// appendRecordHeader appends a binary record's tag and epoch to buf.
func appendRecordHeader(buf []byte, tag byte, epoch *int64) []byte {
	if epoch == nil {
		return append(buf, tag)
	}
	return binary.AppendVarint(append(buf, tag|walHasEpoch), *epoch)
}

// parseRecordHeader splits a binary record of the given tag into its epoch
// and batch bytes.
func parseRecordHeader(rec []byte, tag byte) (epoch *int64, body []byte, err error) {
	if len(rec) == 0 || rec[0]&^walHasEpoch != tag {
		return nil, nil, fmt.Errorf("malformed record tag")
	}
	if rec[0]&walHasEpoch == 0 {
		return nil, rec[1:], nil
	}
	v, k := binary.Varint(rec[1:])
	// Only the shortest encoding is a record, so a record re-encodes to its
	// own bytes.
	if k <= 0 || k > 1 && rec[k] == 0 {
		return nil, nil, fmt.Errorf("malformed record epoch")
	}
	return &v, rec[1+k:], nil
}

// parseWALRecord splits a record of an older log back into the feed's
// epoch and rows. The rows are not checked here: replay decodes them as
// the original feed decoded them.
func parseWALRecord(rec []byte) (epoch *int64, rows []byte, err error) {
	rest, ok := bytes.CutPrefix(rec, []byte(walEpochKey))
	if ok {
		i := bytes.IndexByte(rest, ',')
		if i < 0 {
			return nil, nil, fmt.Errorf("malformed record envelope")
		}
		v, perr := strconv.ParseInt(string(rest[:i]), 10, 64)
		// Only the canonical spelling of the epoch is a record: no sign,
		// leading zeros or spaces that ParseInt would let through.
		if perr != nil || strconv.FormatInt(v, 10) != string(rest[:i]) {
			return nil, nil, fmt.Errorf("malformed record epoch %q", rest[:i])
		}
		epoch, rest = &v, rest[i+1:]
	} else if rest, ok = bytes.CutPrefix(rec, []byte{'{'}); !ok {
		return nil, nil, fmt.Errorf("malformed record envelope")
	}
	rest, ok = bytes.CutPrefix(rest, []byte(walRowsKey))
	if !ok || len(rest) < 2 || rest[len(rest)-1] != '}' {
		return nil, nil, fmt.Errorf("malformed record envelope")
	}
	return epoch, rest[:len(rest)-1], nil
}

// readWALRecord reads one record of any form back into the feed it
// logged. ok is false for a record of an older log whose rows did not
// decode: those logs were written before the decode, so the feed failed
// when it was fed and is skipped now. An error marks a corrupt record.
func (s *Session) readWALRecord(rec []byte) (epoch *int64, b batch, ok bool, err error) {
	if len(rec) == 0 || rec[0] != '{' {
		epoch, b, err = s.readRecord(rec)
		return epoch, b, err == nil, err
	}
	epoch, rows, err := parseWALRecord(rec)
	if err != nil {
		return nil, nil, false, err
	}
	if b, err = s.decode(rows); err != nil {
		return epoch, nil, false, nil
	}
	return epoch, b, true, nil
}

// OpenRegistry opens (initializing if empty) a durable registry rooted at
// dir, restoring every persisted session by rebuilding it from its
// snapshot and replaying its WAL. compactEvery is the per-session WAL
// record count that triggers compaction (<= 0 uses DefaultCompactEvery).
// Sessions that fail to restore are skipped — their files are left on disk
// for inspection — and reported in warnings, in session name order; the
// registry itself opens as long as the directory is usable.
//
// Sessions restore on a pool of parallel.Default() workers. Each worker
// claims the next session from a shared counter, so cheap sessions and
// costly ones (a dt session grows its pinned tree) spread evenly over the
// pool. A session restores from its own directory alone, so the restored
// state is the same for every worker count.
func OpenRegistry(dir string, compactEvery int) (r *Registry, warnings []error, err error) {
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	r = NewRegistry()
	r.store = &Store{dir: dir, compactEvery: compactEvery}
	root := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	// Deterministic publication order (ReadDir sorts, but make it explicit).
	sort.Strings(names)
	sessions := make([]*Session, len(names))
	errs := make([]error, len(names))
	var next atomic.Int64
	restore := func() {
		for i := int(next.Add(1) - 1); i < len(names); i = int(next.Add(1) - 1) {
			sessions[i], errs[i] = r.restoreSession(filepath.Join(root, names[i]))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(parallel.Default(), len(names)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			restore()
		}()
	}
	restore()
	wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, name := range names {
		if errs[i] != nil {
			warnings = append(warnings, fmt.Errorf("session %q: %w", name, errs[i]))
			continue
		}
		r.sessions[name] = sessions[i]
	}
	return r, warnings, nil
}

// restoreSession rebuilds one session from its directory, ready to
// publish.
func (r *Registry) restoreSession(dir string) (*Session, error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, fmt.Errorf("reading snapshot: %w", err)
	}
	var snap restoredSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("snapshot version %d not supported", snap.Version)
	}
	cfg := snap.Config
	if err := validName(cfg.Name); err != nil {
		return nil, err
	}
	if cfg.Name != filepath.Base(dir) {
		return nil, fmt.Errorf("snapshot names session %q", cfg.Name)
	}

	s, err := r.bind(cfg)
	if err != nil {
		return nil, fmt.Errorf("rebinding: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap.Monitor != nil {
		if err := s.restoreMonitor(snap.Monitor); err != nil {
			return nil, fmt.Errorf("restoring window state: %w", err)
		}
	}
	s.reports, s.alerts, s.last = snap.Reports, snap.Alerts, snap.Last

	w, recs, err := wal.Open(walPath(dir, snap.WALGen))
	if err != nil {
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	for i, rec := range recs {
		epoch, b, ok, err := s.readWALRecord(rec)
		if err != nil {
			// appendFeed cannot have written it; treat like wal
			// corruption: stop replaying.
			w.Close()
			return nil, fmt.Errorf("wal record %d: %w", i, err)
		}
		if !ok {
			continue
		}
		// Replay through the normal intake step. A record that fails here
		// failed identically when it was first fed (the WAL is written
		// before ingestion), so a replay failure re-establishes, not
		// diverges from, the pre-crash state.
		s.feedLocked(epoch, b) //nolint:errcheck
	}
	removeStaleWALs(dir, snap.WALGen)
	s.store = &sessionStore{
		dir:          dir,
		gen:          snap.WALGen,
		w:            w,
		records:      len(recs),
		compactEvery: r.store.compactEvery,
	}
	// A boot that replayed a long log compacts immediately, so the next
	// boot starts from the resealed snapshot.
	if s.store.shouldCompact() {
		s.compactLocked()
	}
	return s, nil
}

// sessionDir is the directory of one session's durable state.
func (st *Store) sessionDir(name string) string {
	return filepath.Join(st.dir, "sessions", name)
}

// create initializes the durable state of a new session: its directory, a
// config-only snapshot, and an empty generation-1 WAL. Stale files from a
// crashed earlier incarnation of the name are swept first.
func (st *Store) create(cfg *SessionConfig) (*sessionStore, error) {
	rawCfg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	snap := snapshotJSON{Version: snapshotVersion, WALGen: 1, Config: rawCfg}
	return st.createFromSnapshot(cfg.Name, &snap)
}

// createFromSnapshot initializes a session's durable state from a full
// snapshot — create's config-only case and Import's sealed-state case
// share it. The snapshot must name WAL generation 1; stale files from a
// crashed earlier incarnation of the name are swept first.
func (st *Store) createFromSnapshot(name string, snap *snapshotJSON) (*sessionStore, error) {
	dir := st.sessionDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	removeStaleWALs(dir, 0)
	if err := writeSnapshot(dir, snap); err != nil {
		return nil, err
	}
	w, recs, err := wal.Open(walPath(dir, snap.WALGen))
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 {
		// Cannot happen: the sweep above removed every generation.
		w.Close()
		return nil, fmt.Errorf("fresh wal for %q holds %d records", name, len(recs))
	}
	return &sessionStore{dir: dir, gen: snap.WALGen, w: w, compactEvery: st.compactEvery}, nil
}

// readConfig reads the session's create config back from its on-disk
// snapshot, as the raw bytes create wrote.
//
//lint:holds Session.mu
func (ss *sessionStore) readConfig() (json.RawMessage, error) {
	raw, err := os.ReadFile(filepath.Join(ss.dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	return snapshotConfig(raw)
}

// snapshotConfig cuts the raw "config" value out of a snapshot's bytes
// without decoding the rest. json.Marshal wrote the key as it is spelt
// here and before the window state and report ring, so the scan stops
// at it.
func snapshotConfig(raw []byte) (json.RawMessage, error) {
	sc := jsonscan.New(raw)
	if !sc.Consume('{') {
		return nil, fmt.Errorf("snapshot is not a JSON object")
	}
	if !sc.Consume('}') {
		for {
			key, _, err := sc.String()
			if err != nil {
				return nil, err
			}
			if !sc.Consume(':') {
				return nil, sc.Fail("after object key")
			}
			if string(key) == `"config"` {
				val, _, err := sc.Value(1)
				if err != nil {
					return nil, err
				}
				return val, nil
			}
			if err := sc.Skip(1); err != nil {
				return nil, err
			}
			if sc.Consume(',') {
				continue
			}
			if sc.Consume('}') {
				break
			}
			return nil, sc.Fail("after object key:value pair")
		}
	}
	return nil, fmt.Errorf("snapshot holds no config")
}

// remove deletes the named session's durable state.
func (st *Store) remove(name string) {
	os.RemoveAll(st.sessionDir(name))
}

// appendFeed logs one feed's record ahead of its ingestion.
//
//lint:holds Session.mu
func (ss *sessionStore) appendFeed(rec []byte) error {
	if ss.w == nil {
		return fmt.Errorf("wal unavailable")
	}
	if err := ss.w.Append(rec); err != nil {
		return err
	}
	ss.records++
	return nil
}

// shouldCompact reports whether the WAL replay debt crossed the threshold.
//
//lint:holds Session.mu
func (ss *sessionStore) shouldCompact() bool {
	return ss.records >= ss.compactEvery
}

// close flushes and closes the WAL.
//
//lint:holds Session.mu
func (ss *sessionStore) close() {
	if ss.w != nil {
		ss.w.Close()
		ss.w = nil
	}
}

// compactLocked reseals the session's WAL into a fresh snapshot carrying
// the monitor window state and report ring, then rotates to the next WAL
// generation. Callers hold s.mu; failures leave the current snapshot+WAL
// pair intact (the log keeps growing until a later compaction succeeds).
//
//lint:holds mu Session.mu
func (s *Session) compactLocked() {
	ss := s.store
	ms, err := s.exportMonitor()
	if err != nil {
		return
	}
	// The config travels snapshot-to-snapshot as raw bytes rather than
	// being pinned in memory for the session's lifetime.
	cfg, err := ss.readConfig()
	if err != nil {
		return
	}
	newGen := ss.gen + 1
	// Create the next generation before publishing the snapshot that names
	// it: a crash in between leaves an extra empty log, never a snapshot
	// whose generation is missing records.
	nw, recs, err := wal.Open(walPath(ss.dir, newGen))
	if err != nil {
		return
	}
	if len(recs) > 0 {
		// A stale file from a crashed earlier compaction: start it over.
		nw.Close()
		if err := os.Remove(walPath(ss.dir, newGen)); err != nil {
			return
		}
		if nw, _, err = wal.Open(walPath(ss.dir, newGen)); err != nil {
			return
		}
	}
	snap := snapshotJSON{
		Version: snapshotVersion,
		WALGen:  newGen,
		Config:  cfg,
		Monitor: ms,
		Reports: s.reports,
		Alerts:  s.alerts,
		Last:    s.last,
	}
	if err := writeSnapshot(ss.dir, &snap); err != nil {
		nw.Close()
		os.Remove(walPath(ss.dir, newGen))
		return
	}
	ss.w.Close()
	os.Remove(walPath(ss.dir, ss.gen))
	ss.gen, ss.w, ss.records = newGen, nw, 0
}

// writeSnapshot atomically replaces the session snapshot: temp file,
// fsync, rename.
func writeSnapshot(dir string, snap *snapshotJSON) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, snapshotFile+".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, filepath.Join(dir, snapshotFile)); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// walPath names a WAL generation file.
func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal.%06d.log", gen))
}

// removeStaleWALs sweeps WAL generations other than keep (0 keeps none)
// and leftover snapshot temp files.
func removeStaleWALs(dir string, keep uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	keepName := ""
	if keep > 0 {
		keepName = filepath.Base(walPath(dir, keep))
	}
	for _, e := range entries {
		name := e.Name()
		stale := strings.HasPrefix(name, "wal.") && strings.HasSuffix(name, ".log") && name != keepName ||
			strings.HasPrefix(name, snapshotFile+".tmp-")
		if stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
