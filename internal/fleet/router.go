package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"focus/internal/serve"
)

// maxBodyBytes bounds buffered request bodies on the routing path, matching
// the member-side cap: the router must read a create body to learn the
// session name before it can pick the owning shard.
const maxBodyBytes = 64 << 20

// Router fronts a fleet of focusd members with the same HTTP API a single
// focusd serves. Per-session requests are proxied to the consistent-hash
// owner of the session name; the fleet-wide views — session list and the
// drift summary — are answered by scatter-gather: every member ships its
// own states or its mergeable ShardSummary and the router merges them
// centrally. Raw rows never transit the router except as the request
// bodies it forwards.
//
// Membership changes (AddMember, RemoveMember) re-home sessions by
// snapshot-transfer migration: drain on the old owner, import on the new,
// delete the original. The ring guarantees only the minimal set of
// sessions moves. Requests for a session mid-migration wait on its gate
// rather than racing the transfer.
type Router struct {
	client *http.Client

	// adminMu serializes membership changes and the migrations they run;
	// the data path never takes it, so proxying continues while a
	// rebalance is in flight.
	adminMu sync.Mutex

	mu        sync.Mutex
	ring      *Ring                    // guarded by mu
	members   map[string]*Member       // addr -> client; guarded by mu
	migrating map[string]chan struct{} // per-session migration gates, closed when done; guarded by mu
}

// NewRouter builds a router over the given member addresses ("host:port").
// vnodes tunes the ring (<= 0 uses DefaultVirtualNodes); client is used
// for every member call (nil uses http.DefaultClient — production callers
// should pass one with timeouts).
func NewRouter(addrs []string, vnodes int, client *http.Client) *Router {
	if client == nil {
		client = http.DefaultClient
	}
	rt := &Router{
		client:    client,
		ring:      NewRing(vnodes),
		members:   make(map[string]*Member),
		migrating: make(map[string]chan struct{}),
	}
	for _, addr := range addrs {
		m := NewMember(addr, client)
		rt.mu.Lock()
		rt.ring.Add(m.Addr())
		rt.members[m.Addr()] = m
		rt.mu.Unlock()
	}
	return rt
}

// Members returns the current members sorted by address.
func (rt *Router) Members() []*Member {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*Member, 0, len(rt.members))
	for _, addr := range rt.ring.Members() {
		out = append(out, rt.members[addr])
	}
	return out
}

// sessionMember resolves the owning member of a session name, waiting out
// any in-flight migration of that session first, or until ctx is done.
func (rt *Router) sessionMember(ctx context.Context, name string) (*Member, error) {
	for {
		rt.mu.Lock()
		gate := rt.migrating[name]
		if gate == nil {
			addr := rt.ring.Owner(name)
			m := rt.members[addr]
			rt.mu.Unlock()
			if m == nil {
				return nil, &routeError{code: http.StatusServiceUnavailable, msg: "fleet has no members"}
			}
			return m, nil
		}
		rt.mu.Unlock()
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, &routeError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("session %q is migrating: %v", name, ctx.Err())}
		}
	}
}

// beginMigration installs the gate for name, or reports false if one is
// already in flight.
func (rt *Router) beginMigration(name string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.migrating[name]; ok {
		return false
	}
	rt.migrating[name] = make(chan struct{})
	return true
}

// endMigration closes and removes the gate for name, releasing waiters.
func (rt *Router) endMigration(name string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if gate, ok := rt.migrating[name]; ok {
		close(gate)
		delete(rt.migrating, name)
	}
}

// routeError is an error the router answers itself (as opposed to a
// member response it forwards verbatim).
type routeError struct {
	code int
	msg  string
}

func (e *routeError) Error() string { return e.msg }

// Migrate re-homes one session from its current host onto the ring owner
// by snapshot transfer: drain-export on from, import on the owner, delete
// the original. A failed import resumes the drained session in place, so
// the session keeps serving on its old host and the next rebalance
// retries. No-op when from already owns the session.
func (rt *Router) Migrate(name string, from *Member) error {
	// Membership changes migrate under adminMu, the only path that opens a
	// gate, so this never waits.
	to, err := rt.sessionMember(context.Background(), name)
	if err != nil {
		return err
	}
	if to.Addr() == from.Addr() {
		return nil
	}
	if !rt.beginMigration(name) {
		return fmt.Errorf("session %q is already migrating", name)
	}
	defer rt.endMigration(name)
	image, err := from.Export(name, true)
	if err != nil {
		return fmt.Errorf("exporting %q from %s: %w", name, from.Addr(), err)
	}
	if err := to.Import(name, image); err != nil {
		if rerr := from.Resume(name); rerr != nil {
			return fmt.Errorf("importing %q on %s: %w (and resume on %s failed: %v)", name, to.Addr(), err, from.Addr(), rerr)
		}
		return fmt.Errorf("importing %q on %s: %w (resumed on %s)", name, to.Addr(), err, from.Addr())
	}
	// Best-effort: the new owner has the session; a leftover copy on the
	// old host is shadowed by the ring and swept by the next rebalance.
	if err := from.Delete(name); err != nil {
		return fmt.Errorf("deleting migrated %q from %s: %w", name, from.Addr(), err)
	}
	return nil
}

// AddMember joins a new node to the ring and migrates onto it exactly the
// sessions the ring now places there. It returns how many sessions moved;
// migration errors are joined but do not abort the remaining moves. If a
// migration onto the joiner fails, the join is rolled back: the refused
// session resumed on its old host, where the ring no longer routes it, so
// the joiner leaves the ring again and whatever it already received moves
// back to the restored owners. A rolled-back join reports 0 moved and
// returns the migration errors joined with any error of the rollback.
func (rt *Router) AddMember(addr string) (int, error) {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	m := NewMember(addr, rt.client)
	if !m.Healthy() {
		return 0, &routeError{code: http.StatusBadGateway, msg: fmt.Sprintf("member %s is not healthy", m.Addr())}
	}
	rt.mu.Lock()
	if rt.ring.Has(m.Addr()) {
		rt.mu.Unlock()
		return 0, &routeError{code: http.StatusConflict, msg: fmt.Sprintf("member %s already on the ring", m.Addr())}
	}
	rt.ring.Add(m.Addr())
	rt.members[m.Addr()] = m
	rt.mu.Unlock()
	moved, refused, err := rt.rebalanceLocked(m.Addr())
	if !refused {
		return moved, err
	}
	if _, rerr := rt.leaveLocked(m); rerr != nil {
		err = errors.Join(err, fmt.Errorf("rolling back the join of %s: %w", m.Addr(), rerr))
	}
	return 0, err
}

// RemoveMember gracefully retires a node: it leaves the ring first (so new
// requests route to survivors), then every session still hosted on it is
// migrated to its new owner. It returns how many sessions moved. Removing
// an unreachable member succeeds with zero migrations — its sessions
// resurface when the node restarts and rejoins, courtesy of the durable
// layer — but the listing error is reported.
func (rt *Router) RemoveMember(addr string) (int, error) {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	m := NewMember(addr, rt.client)
	rt.mu.Lock()
	if !rt.ring.Has(m.Addr()) {
		rt.mu.Unlock()
		return 0, &routeError{code: http.StatusNotFound, msg: fmt.Sprintf("member %s not on the ring", m.Addr())}
	}
	if rt.ring.Len() == 1 {
		rt.mu.Unlock()
		return 0, &routeError{code: http.StatusConflict, msg: "cannot remove the last member"}
	}
	leaver := rt.members[m.Addr()]
	rt.mu.Unlock()
	return rt.leaveLocked(leaver)
}

// leaveLocked takes a member off the ring, then migrates every session it
// hosts to the session's new owner; callers hold adminMu. It returns how
// many sessions moved.
func (rt *Router) leaveLocked(leaver *Member) (int, error) {
	rt.mu.Lock()
	rt.ring.Remove(leaver.Addr())
	delete(rt.members, leaver.Addr())
	rt.mu.Unlock()

	names, err := leaver.SessionNames()
	if err != nil {
		return 0, fmt.Errorf("listing sessions of retiring %s: %w", leaver.Addr(), err)
	}
	moved := 0
	var errs []error
	for _, name := range names {
		if err := rt.Migrate(name, leaver); err != nil {
			errs = append(errs, err)
			continue
		}
		moved++
	}
	return moved, joinErrors(errs)
}

// rebalanceLocked migrates every session not hosted on its ring owner;
// callers hold adminMu. Unreachable members are skipped (their sessions
// cannot be drained until they return). refused reports whether a
// migration onto the member at onto failed.
func (rt *Router) rebalanceLocked(onto string) (moved int, refused bool, err error) {
	var errs []error
	for _, m := range rt.Members() {
		names, err := m.SessionNames()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, name := range names {
			owner, err := rt.sessionMember(context.Background(), name)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			if owner.Addr() == m.Addr() {
				continue
			}
			if err := rt.Migrate(name, m); err != nil {
				errs = append(errs, err)
				refused = refused || owner.Addr() == onto
				continue
			}
			moved++
		}
	}
	return moved, refused, joinErrors(errs)
}

// joinErrors collapses a migration error list into one error, or nil.
func joinErrors(errs []error) error {
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, len(errs))
	for i, err := range errs {
		msgs[i] = err.Error()
	}
	return fmt.Errorf("%d migration errors: %s", len(errs), strings.Join(msgs, "; "))
}

// scatterResult is one member's share of a scatter-gather call.
type scatterResult[T any] struct {
	member *Member
	value  T
	err    error
}

// scatter fans fn over every member concurrently and gathers the results
// in member order. Each goroutine writes only its own slot.
func scatter[T any](members []*Member, fn func(*Member) (T, error)) []scatterResult[T] {
	results := make([]scatterResult[T], len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *Member) {
			defer wg.Done()
			v, err := fn(m)
			results[i] = scatterResult[T]{member: m, value: v, err: err}
		}(i, m)
	}
	wg.Wait()
	return results
}

// FleetSummary is the router's merged drift view: the fleet-wide rollup,
// the per-member breakdown it was merged from, and any members that could
// not be reached (whose shards are therefore missing from the rollup).
type FleetSummary struct {
	Fleet       serve.ShardSummary            `json:"fleet"`
	Members     map[string]serve.ShardSummary `json:"members"`
	Unreachable []string                      `json:"unreachable,omitempty"`
}

// Summary scatter-gathers every member's mergeable ShardSummary and merges
// them centrally — per-shard counts travel, never raw rows.
func (rt *Router) Summary() FleetSummary {
	out := FleetSummary{Members: make(map[string]serve.ShardSummary)}
	for _, res := range scatter(rt.Members(), (*Member).Summary) {
		if res.err != nil {
			out.Unreachable = append(out.Unreachable, res.member.Addr())
			continue
		}
		out.Members[res.member.Addr()] = res.value
		out.Fleet.Merge(res.value)
	}
	return out
}

// listResponse is the router's session-list document: the merged states,
// plus the members whose shards are missing from it.
type listResponse struct {
	Sessions    []json.RawMessage `json:"sessions"`
	Unreachable []string          `json:"unreachable,omitempty"`
}

// List scatter-gathers every member's session states and merges them into
// one name-sorted list.
func (rt *Router) List() listResponse {
	out := listResponse{Sessions: []json.RawMessage{}}
	type named struct {
		name string
		raw  json.RawMessage
	}
	var all []named
	for _, res := range scatter(rt.Members(), (*Member).List) {
		if res.err != nil {
			out.Unreachable = append(out.Unreachable, res.member.Addr())
			continue
		}
		for _, raw := range res.value {
			var st struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(raw, &st); err != nil {
				continue
			}
			all = append(all, named{name: st.Name, raw: raw})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	for _, n := range all {
		out.Sessions = append(out.Sessions, n.raw)
	}
	return out
}

// memberStatus is one row of the membership view.
type memberStatus struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Sessions int    `json:"sessions"`
}

// MemberStatuses probes every member's health and session count.
func (rt *Router) MemberStatuses() []memberStatus {
	type probe struct {
		healthy  bool
		sessions int
	}
	results := scatter(rt.Members(), func(m *Member) (probe, error) {
		if !m.Healthy() {
			return probe{}, nil
		}
		names, err := m.SessionNames()
		if err != nil {
			return probe{healthy: true}, nil
		}
		return probe{healthy: true, sessions: len(names)}, nil
	})
	out := make([]memberStatus, len(results))
	for i, res := range results {
		out[i] = memberStatus{Addr: res.member.Addr(), Healthy: res.value.healthy, Sessions: res.value.sessions}
	}
	return out
}
