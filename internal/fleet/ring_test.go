package fleet

import (
	"fmt"
	"testing"
)

// sessionNames returns n deterministic, numbered session-name keys, the
// shape a load generator gives the sessions it creates.
func sessionNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("session-%04d", i)
	}
	return names
}

func memberAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
	}
	return addrs
}

// TestRingBalance places 1k sessions on {3,5,8}-member rings and requires
// every member's share to stay within a factor of the fair share — the
// tolerance virtual nodes exist to provide.
func TestRingBalance(t *testing.T) {
	names := sessionNames(1000)
	for _, nodes := range []int{3, 5, 8} {
		r := NewRing(0)
		for _, m := range memberAddrs(nodes) {
			r.Add(m)
		}
		counts := make(map[string]int)
		for _, name := range names {
			owner := r.Owner(name)
			if owner == "" {
				t.Fatalf("nodes=%d: no owner for %q", nodes, name)
			}
			counts[owner]++
		}
		if len(counts) != nodes {
			t.Errorf("nodes=%d: only %d members own sessions", nodes, len(counts))
		}
		fair := float64(len(names)) / float64(nodes)
		for _, m := range r.Members() {
			share := float64(counts[m]) / fair
			if share < 0.5 || share > 1.6 {
				t.Errorf("nodes=%d: member %s holds %d sessions, %.2fx the fair share %.0f",
					nodes, m, counts[m], share, fair)
			}
		}
	}
}

// TestRingMinimalMovementOnJoin pins the consistent-hashing contract: when
// a member joins, every session either stays put or moves to the joiner —
// never between two surviving members — and roughly 1/n of them move.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	names := sessionNames(1000)
	for _, nodes := range []int{3, 5, 8} {
		addrs := memberAddrs(nodes + 1)
		r := NewRing(0)
		for _, m := range addrs[:nodes] {
			r.Add(m)
		}
		before := make(map[string]string, len(names))
		for _, name := range names {
			before[name] = r.Owner(name)
		}
		joiner := addrs[nodes]
		r.Add(joiner)
		moved := 0
		for _, name := range names {
			after := r.Owner(name)
			if after == before[name] {
				continue
			}
			if after != joiner {
				t.Fatalf("nodes=%d: session %q moved %s -> %s, neither of which is the joiner %s",
					nodes, name, before[name], after, joiner)
			}
			moved++
		}
		want := float64(len(names)) / float64(nodes+1)
		if f := float64(moved); f < 0.4*want || f > 1.8*want {
			t.Errorf("nodes=%d: %d sessions moved to the joiner, want about the fair share %.0f", nodes, moved, want)
		}
	}
}

// TestRingMinimalMovementOnLeave is the inverse contract: only the removed
// member's sessions move, and every survivor keeps its placement.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	names := sessionNames(1000)
	for _, nodes := range []int{3, 5, 8} {
		addrs := memberAddrs(nodes)
		r := NewRing(0)
		for _, m := range addrs {
			r.Add(m)
		}
		before := make(map[string]string, len(names))
		for _, name := range names {
			before[name] = r.Owner(name)
		}
		leaver := addrs[0]
		r.Remove(leaver)
		for _, name := range names {
			after := r.Owner(name)
			if before[name] == leaver {
				if after == leaver {
					t.Fatalf("nodes=%d: session %q still owned by removed member", nodes, name)
				}
				continue
			}
			if after != before[name] {
				t.Fatalf("nodes=%d: session %q on surviving member %s re-homed to %s",
					nodes, name, before[name], after)
			}
		}
	}
}

// TestRingDeterministic requires the ring to be a pure function of the
// membership set: join order must not affect placement.
func TestRingDeterministic(t *testing.T) {
	names := sessionNames(200)
	addrs := memberAddrs(5)
	a, b := NewRing(0), NewRing(0)
	for _, m := range addrs {
		a.Add(m)
	}
	for i := len(addrs) - 1; i >= 0; i-- {
		b.Add(addrs[i])
	}
	for _, name := range names {
		if a.Owner(name) != b.Owner(name) {
			t.Fatalf("placement of %q depends on join order: %s vs %s", name, a.Owner(name), b.Owner(name))
		}
	}
}

// TestRingEdgeCases covers the empty ring, idempotent add/remove, and
// single-member ownership.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0)
	if got := r.Owner("x"); got != "" {
		t.Fatalf("empty ring owner = %q, want empty", got)
	}
	r.Add("a")
	r.Add("a")
	if r.Len() != 1 || len(r.points) != r.vnodes {
		t.Fatalf("double add: %d members, %d points", r.Len(), len(r.points))
	}
	for _, name := range sessionNames(50) {
		if r.Owner(name) != "a" {
			t.Fatalf("single-member ring did not own %q", name)
		}
	}
	r.Remove("b") // absent: no-op
	r.Remove("a")
	if r.Len() != 0 || len(r.points) != 0 {
		t.Fatalf("remove left %d members, %d points", r.Len(), len(r.points))
	}
	if !NewRing(0).Has("a") == false && r.Has("a") {
		t.Fatal("Has on removed member")
	}
}
