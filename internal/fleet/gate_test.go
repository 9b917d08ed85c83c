package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestSessionMemberGateHonoursContext holds a session's migration gate and
// sends a request for the session whose client has gone: the router
// answers promptly instead of parking the request's goroutine until the
// migration ends, and the gate stays held.
func TestSessionMemberGateHonoursContext(t *testing.T) {
	rt := NewRouter([]string{"127.0.0.1:1"}, 0, nil)
	if !rt.beginMigration("s") {
		t.Fatal("gate already held")
	}
	defer rt.endMigration("s")
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/s", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Handler().ServeHTTP(rec, req)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a request whose context is done still waits on the migration gate")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("cancelled request answered %d, want 503", rec.Code)
	}
	rt.mu.Lock()
	gate := rt.migrating["s"]
	rt.mu.Unlock()
	if gate == nil {
		t.Fatal("the gate was removed")
	}
	select {
	case <-gate:
		t.Fatal("the gate was released")
	default:
	}
}
