package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"focus/internal/serve"
	"focus/internal/wal"
)

// probeLayers is the traced run's layer probe. The benchmark cannot see
// inside a request, so it calls each layer's public function beside the
// request on the same input. For each probed session it creates three
// copies on one member — one reached through the router, one over HTTP
// directly, one in process — and feeds all three the session's batches,
// so router-minus-direct is the router hop and direct-minus-in-process is
// the member's HTTP cost. In a durable fleet it also appends each feed's
// write-ahead record to a log of its own. The copies are deleted after.
func probeLayers(e *env, h *fleetHarness, p *servingPlan, shape servingShape) error {
	n := int(e.param("probe_batches"))
	for _, i := range shape.probes {
		s := p.sessions[i]
		if err := probeSession(e, h, s, s.batches[:n], shape.durable); err != nil {
			return fmt.Errorf("probing %s: %w", s.name, err)
		}
		if err := s.layers(e.tr, s.batches[:n]); err != nil {
			return fmt.Errorf("layer probe of %s: %w", s.name, err)
		}
	}
	return nil
}

func probeSession(e *env, h *fleetHarness, s *session, batches []*batch, durable bool) error {
	tr := e.tr
	cfgOf := func(prefix string) serve.SessionConfig {
		c := s.cfg
		c.Name = prefix + s.name
		return c
	}
	routed, direct, local := cfgOf("probe-r-"), cfgOf("probe-d-"), cfgOf("probe-l-")
	body, err := json.Marshal(&routed)
	if err != nil {
		return err
	}
	if _, err := h.call(&request{path: "/v1/sessions", body: body}); err != nil {
		return err
	}
	var m *member
	for _, c := range h.members {
		if _, ok := c.reg.Get(routed.Name); ok {
			m = c
		}
	}
	if m == nil {
		return fmt.Errorf("no member holds %s", routed.Name)
	}
	base := "http://" + m.addr
	if body, err = json.Marshal(&direct); err != nil {
		return err
	}
	if _, err := callOK(h.direct, base, &request{path: "/v1/sessions", body: body}); err != nil {
		return err
	}
	var sess *serve.Session
	tr.Time("serve.create", func() { sess, err = m.reg.Create(local) })
	if err != nil {
		return err
	}

	var w *wal.Writer
	if durable {
		if w, _, err = wal.Open(filepath.Join(e.work, "probe-"+s.name+".log")); err != nil {
			return err
		}
		defer w.Close()
	}
	for k, b := range batches {
		tr.Time("fleet.probe_feed", func() {
			_, err = h.call(&request{path: sessionPath(routed.Name) + "/batches", body: b.body})
		})
		if err != nil {
			return err
		}
		tr.Time("serve.http_feed", func() {
			_, err = callOK(h.direct, base, &request{path: sessionPath(direct.Name) + "/batches", body: b.body})
		})
		if err != nil {
			return err
		}
		tr.Time("serve.feed", func() { _, err = sess.Feed(nil, b.rows()) })
		if err != nil {
			return err
		}
		tr.Time("serve.reports", func() { _, _, err = sess.Reports() })
		if err != nil {
			return err
		}
		if w == nil {
			continue
		}
		// The member logs exactly the feed request's {epoch, rows} fields.
		rec, err := json.Marshal(struct {
			Rows json.RawMessage `json:"rows"`
		}{b.rows()})
		if err != nil {
			return err
		}
		tr.Count("wal.bytes", int64(8+len(rec)))
		tr.Time("wal.append", func() { err = w.Append(rec) })
		if err != nil {
			return err
		}
		if k%8 == 7 {
			tr.Time("wal.sync", func() { err = w.Sync() })
			if err != nil {
				return err
			}
		}
	}
	// Delete the copies so they leave nothing in the member's data dir.
	for _, name := range []string{routed.Name, direct.Name, local.Name} {
		if !m.reg.Delete(name) {
			return fmt.Errorf("probe session %s vanished", name)
		}
	}
	return nil
}
