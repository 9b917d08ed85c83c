package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"focus/internal/dataset"
	"focus/internal/jsonscan"
	"focus/internal/stream"
	"focus/internal/txn"
)

// This file defines the JSON wire format of the focusd HTTP API: session
// configuration, schemas, batches and reports. The wire types are plain
// data — conversion to the internal substrates validates every field and
// maps failures to 4xx responses.

// SchemaJSON is the wire form of a dataset schema.
type SchemaJSON struct {
	Attrs []AttributeJSON `json:"attrs"`
	// Class optionally names the class attribute (required for dt
	// sessions).
	Class string `json:"class,omitempty"`
}

// AttributeJSON is the wire form of one attribute.
type AttributeJSON struct {
	Name string `json:"name"`
	// Kind is "numeric" or "categorical".
	Kind string `json:"kind"`
	// Min and Max bound a numeric attribute's domain.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Values lists a categorical attribute's domain.
	Values []string `json:"values,omitempty"`
}

// Schema converts the wire schema to a dataset schema, validating it.
func (sj *SchemaJSON) Schema() (*dataset.Schema, error) {
	if sj == nil || len(sj.Attrs) == 0 {
		return nil, fmt.Errorf("schema with at least one attribute required")
	}
	attrs := make([]dataset.Attribute, len(sj.Attrs))
	for i, a := range sj.Attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("attribute %d: name required", i)
		}
		switch a.Kind {
		case "numeric":
			if !(a.Min <= a.Max) {
				return nil, fmt.Errorf("attribute %q: min %v > max %v", a.Name, a.Min, a.Max)
			}
			attrs[i] = dataset.Attribute{Name: a.Name, Kind: dataset.Numeric, Min: a.Min, Max: a.Max}
		case "categorical":
			if len(a.Values) == 0 {
				return nil, fmt.Errorf("attribute %q: categorical attribute needs values", a.Name)
			}
			attrs[i] = dataset.Attribute{Name: a.Name, Kind: dataset.Categorical, Values: a.Values}
		default:
			return nil, fmt.Errorf("attribute %q: unknown kind %q (want numeric or categorical)", a.Name, a.Kind)
		}
	}
	s := dataset.NewSchema(attrs...)
	if sj.Class != "" {
		i := s.AttrIndex(sj.Class)
		if i < 0 {
			return nil, fmt.Errorf("class attribute %q not in schema", sj.Class)
		}
		if attrs[i].Kind != dataset.Categorical {
			return nil, fmt.Errorf("class attribute %q must be categorical", sj.Class)
		}
		s.Class = i
	}
	return s, nil
}

// SessionConfig is the wire form of a session-creation request: which model
// class monitors the stream, its induction parameters, the window and
// emission policy (mirroring the core.Config options vocabulary), and the
// pinned reference data.
type SessionConfig struct {
	Name string `json:"name"`
	// Model is "lits", "dt" or "cluster".
	Model string `json:"model"`

	// Lits sessions: the item universe size and Apriori minimum support.
	NumItems   int     `json:"num_items,omitempty"`
	MinSupport float64 `json:"min_support,omitempty"`
	// Counter selects the lits counting backend ("auto", "trie" or
	// "bitmap"; empty = the process default). Reports are bit-identical
	// for every backend.
	Counter string `json:"counter,omitempty"`

	// Dt and cluster sessions: the attribute space of the tuples.
	Schema *SchemaJSON `json:"schema,omitempty"`

	// Dt sessions: tree growth limits of the pinned tree (0 = defaults).
	MaxDepth int `json:"max_depth,omitempty"`
	MinLeaf  int `json:"min_leaf,omitempty"`
	// SplitSearch is read only to refuse configs written for the retired
	// "hist" and "auto" split searches: a pinned tree is grown by the exact
	// search, so a config that grows one ("" or "exact" here) is refused
	// rather than given a different tree. A snapshot pins its tree, so
	// restoring it ignores the field.
	SplitSearch string `json:"split_search,omitempty"`

	// Cluster sessions: grid attributes by name, bins per attribute and the
	// minimum cell density.
	GridAttrs  []string `json:"grid_attrs,omitempty"`
	GridBins   int      `json:"grid_bins,omitempty"`
	MinDensity float64  `json:"min_density,omitempty"`

	// Window policy (default: a sliding window of 1 batch).
	Window         int   `json:"window,omitempty"`
	Tumbling       bool  `json:"tumbling,omitempty"`
	EpochWindow    int64 `json:"epoch_window,omitempty"`
	PreviousWindow bool  `json:"previous_window,omitempty"`

	// Emission policy: difference function ("fa" or "fs", default "fa"),
	// aggregate ("sum" or "max", default "sum"), alert threshold, and
	// optional bootstrap qualification of every report.
	F           string  `json:"f,omitempty"`
	G           string  `json:"g,omitempty"`
	Threshold   float64 `json:"threshold,omitempty"`
	Qualify     bool    `json:"qualify,omitempty"`
	Replicates  int     `json:"replicates,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Parallelism int     `json:"parallelism,omitempty"`

	// Reference holds the pinned reference rows (same shape as a batch's
	// "rows"); required unless previous_window is set, and always required
	// for dt sessions, whose pinned tree is grown from it.
	Reference json.RawMessage `json:"reference,omitempty"`
}

// feedRequest is the wire form of a batch-ingest request. Rows of a lits
// session are arrays of item ids ([[0,3,7], ...]); rows of a dt or cluster
// session are objects mapping attribute names to values
// ([{"x": 1.5, "class": "A"}, ...], the JSONL row format).
type feedRequest struct {
	// Epoch optionally stamps the batch; it must not decrease across
	// batches and drives expiry for epoch_window sessions. Omitted: the
	// previous epoch + 1.
	Epoch *int64          `json:"epoch,omitempty"`
	Rows  json.RawMessage `json:"rows"`
}

// ReportJSON is the wire form of one monitor emission.
type ReportJSON struct {
	Seq       int     `json:"seq"`
	Epoch     int64   `json:"epoch"`
	Batches   int     `json:"batches"`
	N         int     `json:"n"`
	RefN      int     `json:"ref_n"`
	Regions   int     `json:"regions"`
	Deviation float64 `json:"deviation"`
	Alert     bool    `json:"alert"`
	// Significance is the bootstrap significance percentage, present when
	// the session qualifies its emissions.
	Significance *float64 `json:"significance,omitempty"`
}

// reportJSON converts a monitor report to its wire form.
func reportJSON(rep *stream.Report) *ReportJSON {
	if rep == nil {
		return nil
	}
	out := &ReportJSON{
		Seq:       rep.Seq,
		Epoch:     rep.Epoch,
		Batches:   rep.Batches,
		N:         rep.N,
		RefN:      rep.RefN,
		Regions:   rep.Regions,
		Deviation: rep.Deviation,
		Alert:     rep.Alert,
	}
	if rep.Qual != nil {
		sig := rep.Qual.Significance
		out.Significance = &sig
	}
	return out
}

// feedResponse is the wire form of a batch-ingest response. Report is null
// when the window policy suppressed emission (e.g. a tumbling window still
// filling).
type feedResponse struct {
	Report *ReportJSON `json:"report"`
}

// SessionState is the wire form of a session snapshot.
type SessionState struct {
	Name  string `json:"name"`
	Model string `json:"model"`
	// Epoch is the epoch of the most recent batch.
	Epoch int64 `json:"epoch"`
	// WindowBatches and WindowN describe the live window.
	WindowBatches int `json:"window_batches"`
	WindowN       int `json:"window_n"`
	// Reports counts emissions so far; Alerts counts those that alerted.
	Reports int `json:"reports"`
	Alerts  int `json:"alerts"`
	// LastReport is the most recent emission, if any.
	LastReport *ReportJSON `json:"last_report,omitempty"`
}

// reportsResponse is the wire form of the reports endpoint: the most recent
// emissions (bounded by the registry's retention), oldest first.
type reportsResponse struct {
	Reports []ReportJSON `json:"reports"`
	Alerts  int          `json:"alerts"`
}

// errorResponse is the wire form of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// tupleCodec returns the batch codecs of a dt or cluster session on schema
// s, with the schema's decode tables built once per session, not per
// request.
func tupleCodec(s *dataset.Schema) rowCodec[*dataset.Dataset] {
	td := dataset.NewTupleDecoder(s)
	return rowCodec[*dataset.Dataset]{
		tag:          walTuples,
		decode:       func(raw json.RawMessage) (*dataset.Dataset, error) { return td.DecodeRows(raw) },
		appendBinary: func(buf []byte, d *dataset.Dataset) []byte { return d.AppendBinaryRows(buf) },
		decodeBinary: func(b []byte) (*dataset.Dataset, error) { return dataset.DecodeBinaryRows(s, b) },
	}
}

// txnCodec returns the batch codecs of a lits session over numItems items.
func txnCodec(numItems int) rowCodec[*txn.Dataset] {
	return rowCodec[*txn.Dataset]{
		tag:          walTxns,
		decode:       func(raw json.RawMessage) (*txn.Dataset, error) { return decodeTxnRows(numItems, raw) },
		appendBinary: func(buf []byte, d *txn.Dataset) []byte { return d.AppendBinaryRows(buf) },
		decodeBinary: func(b []byte) (*txn.Dataset, error) { return txn.DecodeBinaryRows(numItems, b) },
	}
}

// txnScratch is the per-call scratch of decodeTxnRows: the batch's items,
// each row normalized in place, and each row's end offset into items.
type txnScratch struct {
	items []txn.Item
	ends  []int
}

// txnScratchPool recycles decodeTxnRows scratch, so a batch allocates only
// its exactly sized item storage.
var txnScratchPool = sync.Pool{New: func() any { return new(txnScratch) }}

// maxPooledItems bounds the scratch returned to the pool.
const maxPooledItems = 1 << 16

// decodeTxnRows decodes an array of item-id arrays into a transaction batch
// over numItems items in one pass over raw. It accepts exactly what
// encoding/json unmarshalling into [][]int64 accepts (the oracle of the
// differential fuzz FuzzDecodeTxnRows), followed by a range check of every
// item: ids parse with strconv.ParseInt (so 1.0 and 1e2 are
// not ids), a null id is item 0, a null row is an empty transaction, and a
// top-level null is an empty batch. A syntax error outranks a non-integer
// id, which outranks an id outside the universe.
func decodeTxnRows(numItems int, raw []byte) (*txn.Dataset, error) {
	const shape = "rows must be an array of item-id arrays"
	syntax := func(err error) (*txn.Dataset, error) { return nil, fmt.Errorf("%s: %w", shape, err) }
	sc := jsonscan.New(raw)
	d := txn.New(numItems)
	switch c := sc.Peek(); c {
	case 'n':
		if err := sc.Literal("null"); err != nil {
			return syntax(err)
		}
		if err := sc.End(); err != nil {
			return syntax(err)
		}
		return d, nil
	case '[':
		sc.Consume('[')
	default:
		if err := jsonscan.Valid(raw); err != nil {
			return syntax(err)
		}
		return nil, fmt.Errorf("%s, not %s", shape, jsonscan.Kind(c))
	}
	buf := txnScratchPool.Get().(*txnScratch)
	items, ends := buf.items[:0], buf.ends[:0]
	defer func() {
		if cap(items) <= maxPooledItems && cap(ends) <= maxPooledItems {
			buf.items, buf.ends = items[:0], ends[:0]
			txnScratchPool.Put(buf)
		}
	}()
	// The first non-integer id and the first id outside the universe are
	// kept while the scan goes on: a later syntax error outranks both.
	var typeErr, rangeErr error
	if !sc.Consume(']') {
		for row := 0; ; row++ {
			lo := len(items)
			switch c := sc.Peek(); c {
			case 'n':
				if err := sc.Literal("null"); err != nil {
					return syntax(err)
				}
			case '[':
				sc.Consume('[')
				if sc.Consume(']') {
					break
				}
				for {
					var v int64
					switch c := sc.Peek(); {
					case c == 'n':
						if err := sc.Literal("null"); err != nil {
							return syntax(err)
						}
					case c == '-' || c >= '0' && c <= '9':
						tok, err := sc.Number()
						if err != nil {
							return syntax(err)
						}
						if v, err = strconv.ParseInt(string(tok), 10, 64); err != nil {
							if typeErr == nil {
								typeErr = fmt.Errorf("%s: row %d: number %s is not an item id", shape, row, tok)
							}
							v = 0
						}
					default:
						if err := sc.Skip(2); err != nil {
							return syntax(err)
						}
						if typeErr == nil {
							typeErr = fmt.Errorf("%s: row %d: cannot decode %s as an item id", shape, row, jsonscan.Kind(c))
						}
					}
					// Range-check before the Item conversion: a value past
					// int32 would otherwise wrap silently into the universe.
					if (v < 0 || v >= int64(numItems)) && rangeErr == nil {
						rangeErr = fmt.Errorf("row %d: item %d outside universe [0,%d)", row, v, numItems)
					}
					items = append(items, txn.Item(v))
					if sc.Consume(',') {
						continue
					}
					if sc.Consume(']') {
						break
					}
					return syntax(sc.Fail("after array element"))
				}
			default:
				if err := sc.Skip(1); err != nil {
					return syntax(err)
				}
				if typeErr == nil {
					typeErr = fmt.Errorf("%s: row %d: cannot decode %s as an item-id array", shape, row, jsonscan.Kind(c))
				}
			}
			items = items[:lo+len(txn.Transaction(items[lo:]).Normalize())]
			ends = append(ends, len(items))
			if sc.Consume(',') {
				continue
			}
			if sc.Consume(']') {
				break
			}
			return syntax(sc.Fail("after array element"))
		}
	}
	if err := sc.End(); err != nil {
		return syntax(err)
	}
	if typeErr != nil {
		return nil, typeErr
	}
	if rangeErr != nil {
		return nil, rangeErr
	}
	// One exactly sized block holds every transaction: window batches
	// retain their storage, so slack would outlive the request.
	if len(ends) > 0 {
		store := make([]txn.Item, len(items))
		copy(store, items)
		d.Txns = make([]txn.Transaction, len(ends))
		lo := 0
		for i, hi := range ends {
			d.Txns[i] = store[lo:hi:hi]
			lo = hi
		}
	}
	return d, nil
}
