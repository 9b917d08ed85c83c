// Package fleet is the multi-node serving subsystem: it scales the focusd
// registry (internal/serve) horizontally across a fleet of member nodes.
//
// The pieces, bottom to top:
//
//   - Ring is a deterministic consistent-hash ring with virtual nodes. It
//     places every session name on exactly one member, balances load to
//     within a small tolerance of the fair share, and moves only the
//     minimal set of sessions when a member joins or leaves.
//   - Member is the HTTP client for one focusd node: the per-session
//     endpoints plus the fleet verbs (health, streaming list, mergeable
//     drift summary, session export/import/resume).
//   - Router serves the same HTTP API as a single focusd, proxying each
//     per-session request to the ring owner of its session name and
//     answering the fleet-wide views — session list and the drift
//     summary — by scatter-gather over all members. In the Dac-Man style,
//     members ship per-shard mergeable count summaries and the router
//     merges them centrally; raw rows never leave their shard.
//
// Membership changes migrate sessions by snapshot transfer over the
// PR 7 durable layer: the router drains the session on its old owner
// (feeds 503 with Retry-After), ships the sealed snapshot — config,
// window state, report ring; equivalently the on-disk snapshot with the
// WAL tail folded in — to the new owner, and deletes the original once
// the import is acknowledged. A failed import resumes the drained
// session in place, so a migration never strands a session half-moved.
//
// Command focusrouter serves a Router; the benchmark's serving workloads
// (perfbench/fleet.go) drive an in-process Router over loopback HTTP and
// record the router-path latency distribution.
package fleet
