// Command focusd serves FOCUS deviation monitoring over HTTP: a
// multi-tenant registry of named monitor sessions (lits, dt or cluster
// model classes), each an incremental windowed monitor pinned on reference
// data, fed batches of JSON rows and queried for deviation reports and
// threshold alerts.
//
//	focusd -addr 127.0.0.1:8080
//
// With -data DIR sessions are durable: each session writes a snapshot of
// its create-time configuration, decoded reference rows and pinned tree,
// and logs every decoded batch to a per-session write-ahead log before
// ingesting it, compacting the log into a fresh snapshot of window state
// and reports every -compact-every batches. On restart focusd restores every session by replaying
// snapshot-then-WAL, on -parallelism workers, reproducing the exact pre-crash state and report stream — deviation
// reports are deterministic in the fed batches, including bootstrap
// qualification, whose RNG stream is seeded per report. Without -data the
// registry is purely in-memory, exactly as before.
//
// The endpoint table lives on serve.Registry.Handler; the README's
// "Streaming sources & serving" section walks through the API with curl.
// On startup focusd prints one line, "focusd listening on ADDR", so
// scripts (and the smoke test) can bind port 0 and discover the address;
// when -data restores sessions, a "focusd restored N sessions" line
// follows it.
//
// On SIGTERM/SIGINT the health endpoint flips to 503 with Retry-After for
// -drain-grace before the listener shuts down, so a fronting focusrouter
// (see cmd/focusrouter) stops routing new work to a member that is about
// to go away.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"focus/internal/parallel"
	"focus/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "focusd:", err)
		os.Exit(1)
	}
}

// run executes the server until SIGINT/SIGTERM, writing the listening line
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("focusd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use port 0 for an ephemeral port)")
	par := fs.Int("parallelism", 0, "worker count for scans, bootstrap and session restore (0 = GOMAXPROCS, 1 = serial)")
	dataDir := fs.String("data", "", "data directory for durable sessions (empty = in-memory only)")
	compactEvery := fs.Int("compact-every", serve.DefaultCompactEvery,
		"WAL records per session before compacting into a fresh snapshot")
	drainGrace := fs.Duration("drain-grace", 0,
		"on SIGTERM, keep serving this long after /healthz flips to 503 so routers stop sending work")
	if err := fs.Parse(args); err != nil {
		return err
	}
	parallel.SetDefault(*par)

	var reg *serve.Registry
	restored := -1
	if *dataDir != "" {
		var warnings []error
		var err error
		reg, warnings, err = serve.OpenRegistry(*dataDir, *compactEvery)
		if err != nil {
			return fmt.Errorf("opening data directory %s: %w", *dataDir, err)
		}
		for _, w := range warnings {
			fmt.Fprintln(os.Stderr, "focusd: skipping unrestorable", w)
		}
		restored = len(reg.Names())
	} else {
		reg = serve.NewRegistry()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The listening line must stay first on stdout: scripts scan for it.
	fmt.Fprintf(stdout, "focusd listening on %s\n", ln.Addr())
	if restored >= 0 {
		fmt.Fprintf(stdout, "focusd restored %d sessions from %s\n", restored, *dataDir)
	}

	srv := &http.Server{
		Handler:           reg.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip /healthz to 503 + Retry-After first, then keep serving through
	// the grace window: a router health-probing this member sees it drain
	// and stops routing new work before in-flight requests are cut off.
	reg.SetDraining(true)
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Flush session WALs so a machine crash after a clean shutdown cannot
	// lose acknowledged batches still in the page cache.
	reg.Close()
	return nil
}
