package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"focus/internal/parallel"
	"focus/internal/stream"
	"focus/internal/wal"
)

// This file is the durability layer of the registry: per-session snapshots
// plus a write-ahead log, compacted in generations, replayed on boot.
//
// Layout under the data directory:
//
//	<data>/sessions/<name>/snapshot.bin    config, pinned reference (and tree), window state, reports
//	<data>/sessions/<name>/wal.<gen>.log   batches fed since the snapshot
//
// A session's durable state is always (snapshot, WAL generation named by
// the snapshot): Create writes a snapshot holding the config, the decoded
// reference rows and, for a dt session, the tree grown from them, plus an
// empty generation-1 WAL; every Feed decodes its rows and appends the
// decoded batch to the WAL, in the binary record form below, before
// ingestion; compaction reseals the accumulated WAL into a new snapshot
// carrying the monitor's window state and the report ring, pointing at the
// next WAL generation. Recovery rebuilds the session from the snapshot
// (bind from the config, the binary reference rows and the encoded tree,
// reinstate window state) and replays the snapshot's WAL generation through
// the same intake step a feed ends in, with no text parse and no tree
// growth — deterministic, so the restored session's State and Reports are
// bit-identical to an uninterrupted run. OpenRegistry restores sessions on
// a pool of parallel.Default() workers; each session restores on its own,
// so the result does not depend on the worker count.
//
// A snapshot (format version 2) is
//
//	magic   snapshotMagic, 8 bytes
//	header  a section: JSON {"version":2,"wal_gen":G,"config":{...},
//	        "reports":[...],"alerts":A,"last":{...}}, the config without
//	        its "reference" and the retained report ring
//	ref     a section: the pinned reference rows, in the binary batch form
//	        of WAL records (empty: no pinned reference)
//	tree    a section: a dt session's pinned tree, dtree's binary form
//	        (empty for the other model classes)
//	window  a section: the monitor window state, see appendWindowState
//	crc     CRC-32C of everything before it, 4 bytes little-endian
//
// where a section is its length as a uvarint followed by its bytes.
// Compaction copies the config, reference and tree forward unchanged and
// writes only the window state and report ring anew.
//
// The snapshot is also the session's migration form, its one image:
// Session.Export seals the same bytes with wal_gen 0, and Registry.Import
// binds them through bindImage, the step restore takes, so a migrated dt
// session keeps its pinned tree as a restarted one does.
//
// Directories written before version 2 hold snapshot.json, one JSON
// document with the reference as the create request's JSON rows and the
// window batches as JSON rows; the export document of older members is the
// same document without its wal_gen. Both still bind (decoding the rows
// and growing a dt tree as before); a restored one is resealed as
// snapshot.bin at the session's next compaction, which removes
// snapshot.json only after the new snapshot is renamed into place; a
// directory holding both restores from snapshot.bin.
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
const snapshotVersion = 2

// snapshotFile is the per-session snapshot; snapshotV1File is the JSON
// snapshot of format version 1.
const (
	snapshotFile   = "snapshot.bin"
	snapshotV1File = "snapshot.json"
)

// snapshotMagic opens every snapshot file of format version 2 on.
const snapshotMagic = "FOCUSSNP"

// castagnoli is the CRC-32C table of the snapshot checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
	// v1 marks a session restored from a snapshot.json not yet resealed:
	// its next compaction encodes the pinned sections from memory, since
	// the old file holds none to copy. Guarded by Session.mu.
	v1 bool
}

// imageHeader is the JSON header of a snapshot, where Config is the
// session's create config without its reference rows and Monitor is
// unused. A version-1 image is one such JSON document on its own, with
// Config holding the reference rows and Monitor the window state; export
// documents of version 1 carry no WALGen.
type imageHeader struct {
	Version int               `json:"version"`
	WALGen  uint64            `json:"wal_gen"`
	Config  json.RawMessage   `json:"config"`
	Monitor *monitorStateJSON `json:"monitor,omitempty"`
	Reports []ReportJSON      `json:"reports,omitempty"`
	Alerts  int               `json:"alerts,omitempty"`
	Last    *ReportJSON       `json:"last,omitempty"`
}

// pinnedSections are the snapshot sections fixed when a session is
// created: the binary reference rows and a dt session's encoded tree.
type pinnedSections struct {
	ref, tree []byte
}

// snapshot is a snapshot file split into its sections.
type snapshot struct {
	header []byte
	pinnedSections
	window []byte
}

// appendSection appends one length-prefixed section to buf.
func appendSection(buf, sec []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(sec))), sec...)
}

// encode renders the snapshot file.
func (snap *snapshot) encode() []byte {
	secs := [][]byte{snap.header, snap.ref, snap.tree, snap.window}
	size := len(snapshotMagic) + 4
	for _, sec := range secs {
		size += binary.MaxVarintLen64 + len(sec)
	}
	buf := append(make([]byte, 0, size), snapshotMagic...)
	for _, sec := range secs {
		buf = appendSection(buf, sec)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// parseSnapshot splits a snapshot file into its sections, checking its
// magic and checksum. The sections alias data.
func parseSnapshot(data []byte) (snapshot, error) {
	if len(data) < len(snapshotMagic)+4 || string(data[:len(snapshotMagic)]) != snapshotMagic {
		return snapshot{}, errors.New("not a snapshot file")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
		return snapshot{}, errors.New("snapshot checksum mismatch")
	}
	r := sectionReader{b: body[len(snapshotMagic):]}
	snap := snapshot{header: r.section()}
	snap.ref, snap.tree, snap.window = r.section(), r.section(), r.section()
	return snap, r.end()
}

// sectionReader reads varints and sections off the front of b. The first
// defect sticks: later reads return zero values, and end reports it.
type sectionReader struct {
	b   []byte
	err error
}

func (r *sectionReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.err = errors.New("malformed snapshot varint")
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *sectionReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Varint(r.b)
	if k <= 0 {
		r.err = errors.New("malformed snapshot varint")
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *sectionReader) section() []byte {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = fmt.Errorf("snapshot section of %d bytes overruns its %d", n, len(r.b))
	}
	if r.err != nil {
		return nil
	}
	sec := r.b[:n:n]
	r.b = r.b[n:]
	return sec
}

// end reports the first defect, or trailing bytes.
func (r *sectionReader) end() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("snapshot holds %d trailing bytes", len(r.b))
	}
	return r.err
}

// appendWindowState appends the window section of a snapshot:
//
//	epoch     the epoch of the latest ingest, a zigzag varint
//	seq       the reports emitted so far, a uvarint
//	batches   the live batch count k, a uvarint, then k times the batch's
//	          epoch (zigzag varint) and the batch as a section in the
//	          binary batch form of WAL records
//	promoted  a section: the promoted reference rows of a previous-window
//	          session, empty while none is promoted
func appendWindowState[D any](buf []byte, st stream.MonitorState[D], appendBatch func([]byte, D) []byte) []byte {
	buf = binary.AppendVarint(buf, st.Epoch)
	buf = binary.AppendUvarint(buf, uint64(st.Seq))
	buf = binary.AppendUvarint(buf, uint64(len(st.Batches)))
	var body []byte
	for i, b := range st.Batches {
		buf = binary.AppendVarint(buf, st.Epochs[i])
		body = appendBatch(body[:0], b)
		buf = appendSection(buf, body)
	}
	body = body[:0]
	if st.RefPromoted {
		body = appendBatch(body, st.RefData)
	}
	return appendSection(buf, body)
}

// parseWindowState reads the window section appendWindowState wrote.
func parseWindowState[D any](b []byte, decodeBatch func([]byte) (D, error)) (stream.MonitorState[D], error) {
	r := sectionReader{b: b}
	var st stream.MonitorState[D]
	st.Epoch = r.varint()
	seq := r.uvarint()
	n := r.uvarint()
	// Every batch takes at least two bytes: its epoch and its length.
	if r.err == nil && (seq > math.MaxInt || n > uint64(len(r.b))/2) {
		return st, errors.New("malformed window state")
	}
	st.Seq = int(seq)
	for i := 0; i < int(n) && r.err == nil; i++ {
		st.Epochs = append(st.Epochs, r.varint())
		sec := r.section()
		if r.err != nil {
			break
		}
		d, err := decodeBatch(sec)
		if err != nil {
			return st, fmt.Errorf("window batch %d: %w", i, err)
		}
		st.Batches = append(st.Batches, d)
	}
	promoted := r.section()
	if err := r.end(); err != nil {
		return st, fmt.Errorf("window state: %w", err)
	}
	if len(promoted) > 0 {
		d, err := decodeBatch(promoted)
		if err != nil {
			return st, fmt.Errorf("reference window: %w", err)
		}
		st.RefPromoted, st.RefData = true, d
	}
	return st, nil
}

// monitorStateJSON is the JSON form of stream.MonitorState in version-1
// images: window batches as row payloads in the session's own rows format.
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
// costly ones (a long log to replay, or a v1 dt session that grows its
// pinned tree) spread evenly over the pool. A session restores from its own directory alone, so the restored
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
	s, gen, v1, err := r.loadSnapshot(dir)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w, recs, err := wal.Open(walPath(dir, gen))
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
	removeStaleFiles(dir, gen, !v1)
	s.store = &sessionStore{
		dir:          dir,
		gen:          gen,
		w:            w,
		records:      len(recs),
		compactEvery: r.store.compactEvery,
		v1:           v1,
	}
	// A boot that replayed a long log compacts immediately, so the next
	// boot starts from the resealed snapshot.
	if s.store.shouldCompact() {
		s.compactLocked()
	}
	return s, nil
}

// loadSnapshot binds a session from the snapshot in dir — snapshot.bin,
// or a v1 snapshot.json when there is none. It returns the WAL generation
// the snapshot names, and whether the snapshot was a v1 one.
func (r *Registry) loadSnapshot(dir string) (s *Session, gen uint64, v1 bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if errors.Is(err, fs.ErrNotExist) {
		raw, err = os.ReadFile(filepath.Join(dir, snapshotV1File))
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("reading snapshot: %w", err)
	}
	if s, gen, v1, err = r.bindImage(raw, filepath.Base(dir)); err != nil {
		return nil, 0, false, err
	}
	if gen == 0 {
		return nil, 0, false, errors.New("snapshot names no WAL generation")
	}
	return s, gen, v1, nil
}

// bindImage binds the session named name from a session image, the one
// form a session takes both on disk and over the migration wire: a
// snapshot (format version 2), or a version-1 JSON document — a v1
// snapshot.json, or the export document of older members. A snapshot
// binds from its config, binary reference rows and encoded tree, so a dt
// session keeps the tree it was created with; a version-1 image decodes
// its reference from the config's JSON rows and grows a dt tree from them.
// Then the window state and report ring are reinstated. It returns the WAL
// generation the image names (0 when it names none), and whether it was a
// version-1 image.
func (r *Registry) bindImage(raw []byte, name string) (s *Session, gen uint64, v1 bool, err error) {
	var snap snapshot
	header := raw
	if v1 = !bytes.HasPrefix(raw, []byte(snapshotMagic)); !v1 {
		if snap, err = parseSnapshot(raw); err != nil {
			return nil, 0, false, fmt.Errorf("decoding snapshot: %w", err)
		}
		header = snap.header
	}
	var hdr imageHeader
	if err := json.Unmarshal(header, &hdr); err != nil {
		return nil, 0, false, fmt.Errorf("decoding snapshot header: %w", err)
	}
	want := snapshotVersion
	if v1 {
		want = 1
	}
	if hdr.Version != want {
		return nil, 0, false, fmt.Errorf("snapshot version %d not supported", hdr.Version)
	}
	var cfg SessionConfig
	if err := json.Unmarshal(hdr.Config, &cfg); err != nil {
		return nil, 0, false, fmt.Errorf("decoding snapshot config: %w", err)
	}
	if err := checkImageName(&cfg, name); err != nil {
		return nil, 0, false, err
	}
	cfgRaw, pin := hdr.Config, &snap.pinnedSections
	switch {
	case v1:
		cfgRaw, pin = nil, nil
	case len(cfg.Reference) > 0:
		return nil, 0, false, errors.New("snapshot config holds reference rows")
	case (cfg.Model == "dt") != (len(snap.tree) > 0):
		return nil, 0, false, fmt.Errorf("snapshot of a %q session holds %d tree bytes", cfg.Model, len(snap.tree))
	}
	if s, err = r.bind(cfg, cfgRaw, pin); err != nil {
		return nil, 0, false, fmt.Errorf("rebinding: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case !v1:
		err = s.restoreWindow(snap.window)
	case hdr.Monitor != nil:
		err = s.restoreMonitor(hdr.Monitor)
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("restoring window state: %w", err)
	}
	s.reports, s.alerts, s.last = hdr.Reports, hdr.Alerts, hdr.Last
	return s, hdr.WALGen, v1, nil
}

// checkImageName requires an image's config to name the session it
// restores or imports as.
func checkImageName(cfg *SessionConfig, name string) error {
	if err := validName(cfg.Name); err != nil {
		return err
	}
	if cfg.Name != name {
		return fmt.Errorf("snapshot names session %q, not %q", cfg.Name, name)
	}
	return nil
}

// sessionDir is the directory of one session's durable state.
func (st *Store) sessionDir(name string) string {
	return filepath.Join(st.dir, "sessions", name)
}

// sealSnapshot encodes the session's snapshot naming WAL generation gen
// (0 in an exported image, which names none): its config, the given
// pinned sections, and the live window state and report ring.
//
//lint:holds mu
func (s *Session) sealSnapshot(gen uint64, pin pinnedSections) ([]byte, error) {
	header, err := json.Marshal(&imageHeader{
		Version: snapshotVersion,
		WALGen:  gen,
		Config:  s.cfgRaw,
		Reports: s.reports,
		Alerts:  s.alerts,
		Last:    s.last,
	})
	if err != nil {
		return nil, err
	}
	return (&snapshot{header: header, pinnedSections: pin, window: s.appendWindow(nil)}).encode(), nil
}

// persistNew initializes the durable state of a session just bound by
// Create or Import: a snapshot of its current state naming WAL generation
// 1, and that empty generation. Stale files from a crashed earlier
// incarnation of the name are swept first.
//
//lint:holds mu
func (s *Session) persistNew(st *Store) error {
	snap, err := s.sealSnapshot(1, s.pinned())
	if err != nil {
		return err
	}
	dir := st.sessionDir(s.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	removeStaleFiles(dir, 0, true)
	if err := writeSnapshot(dir, snap); err != nil {
		return err
	}
	w, recs, err := wal.Open(walPath(dir, 1))
	if err != nil {
		return err
	}
	if len(recs) > 0 {
		// Cannot happen: the sweep above removed every generation.
		w.Close()
		return fmt.Errorf("fresh wal for %q holds %d records", s.name, len(recs))
	}
	s.store = &sessionStore{dir: dir, gen: 1, w: w, compactEvery: st.compactEvery}
	return nil
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
// generation. The config, reference and tree sections are copied from the
// current snapshot as they are (a session restored from a v1 snapshot
// encodes them from memory once, and its snapshot.json is removed once
// the new snapshot is in place). Callers hold s.mu; failures leave the
// current snapshot+WAL pair intact (the log keeps growing until a later
// compaction succeeds).
//
//lint:holds mu Session.mu
func (s *Session) compactLocked() {
	ss := s.store
	var pin pinnedSections
	if ss.v1 {
		pin = s.pinned()
	} else {
		raw, err := os.ReadFile(filepath.Join(ss.dir, snapshotFile))
		if err != nil {
			return
		}
		prev, err := parseSnapshot(raw)
		if err != nil {
			return
		}
		pin = prev.pinnedSections
	}
	newGen := ss.gen + 1
	snap, err := s.sealSnapshot(newGen, pin)
	if err != nil {
		return
	}
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
	if err := writeSnapshot(ss.dir, snap); err != nil {
		nw.Close()
		os.Remove(walPath(ss.dir, newGen))
		return
	}
	if ss.v1 {
		os.Remove(filepath.Join(ss.dir, snapshotV1File))
		ss.v1 = false
	}
	ss.w.Close()
	os.Remove(walPath(ss.dir, ss.gen))
	ss.gen, ss.w, ss.records = newGen, nw, 0
}

// writeSnapshot atomically replaces the session snapshot: temp file,
// fsync, rename.
func writeSnapshot(dir string, data []byte) error {
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

// removeStaleFiles sweeps WAL generations other than keep (0 keeps none),
// leftover snapshot temp files and, when v2 is set (the session's
// snapshot is snapshot.bin), a v1 snapshot.json a crash left behind.
func removeStaleFiles(dir string, keep uint64, v2 bool) {
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
			strings.HasPrefix(name, "snapshot.") && strings.Contains(name, ".tmp-") ||
			v2 && name == snapshotV1File
		if stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}
