// Command coefficientd is the fault-tolerant simulation daemon: it
// serves scenario-simulation jobs over HTTP on the deterministic
// experiment runner, with admission control, per-job deadlines, one
// attempt per job, panic quarantine, and graceful drain on SIGTERM (see
// internal/serve and DESIGN.md §11).
//
// Usage:
//
//	coefficientd -addr :8077 -workers 4 -queue 32 -drain 30s -state-dir state
//
// Submit a job and watch it:
//
//	curl -s -X POST localhost:8077/jobs -d '{"seed":1,"quick":true}'
//	curl -s localhost:8077/jobs/<id>
//	curl -s localhost:8077/healthz
//
// With -state-dir, every job transition is journaled and every result
// persists under <state-dir>/results/ as its job completes; without it
// the daemon runs memory-only.  SIGTERM (or SIGINT) stops admission,
// finishes queued and in-flight jobs under the -drain deadline, closes
// the journal, and exits 0 on a clean drain, 1 on a forced one.
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

	"github.com/flexray-go/coefficient/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "coefficientd:", err)
		os.Exit(1)
	}
}

// run boots the daemon and blocks until ctx is cancelled (the signal
// path) and the drain completes.  onReady, when non-nil, receives the
// bound address once the listener is up — the test hook.
func run(ctx context.Context, args []string, logw io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("coefficientd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8077", "listen address")
		workers    = fs.Int("workers", 2, "data-plane worker count")
		queueCap   = fs.Int("queue", 16, "admission queue capacity")
		drain      = fs.Duration("drain", 30*time.Second, "graceful drain deadline on SIGTERM")
		retryAfter = fs.Duration("retry-after", 2*time.Second, "Retry-After hint on 503 rejections")
		stateDir   = fs.String("state-dir", "", "durable state directory (write-ahead journal + persistent results); empty runs memory-only")
		diskFlag   = fs.String("disk-policy", "degrade", "on durable-state I/O errors: degrade (drop to memory-only) or fail (refuse new work)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// serve.Config maps non-positive values to its defaults, so reject
	// them here rather than run with settings other than the ones given.
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", *workers}, {"queue", *queueCap}} {
		if f.v < 1 {
			return fmt.Errorf("-%s %d: must be positive", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    time.Duration
	}{{"drain", *drain}, {"retry-after", *retryAfter}} {
		if f.v <= 0 {
			return fmt.Errorf("-%s %v: must be positive", f.name, f.v)
		}
	}
	policy, err := serve.ParseDiskPolicy(*diskFlag)
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Workers:       *workers,
		QueueCapacity: *queueCap,
		RetryAfter:    *retryAfter,
		StateDir:      *stateDir,
		DiskPolicy:    policy,
	})
	if err != nil {
		return err
	}
	if *stateDir != "" {
		st := srv.Stats()
		fmt.Fprintf(logw, "coefficientd: durable state in %s: %d results cached, %d jobs recovered, %d corrupt files quarantined (diskDegraded=%v)\n",
			*stateDir, st.StoreEntries, st.RecoveredJobs, st.CorruptFiles, st.DiskDegraded)
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(logw, "coefficientd: listening on %s (%d workers, queue %d)\n",
		ln.Addr(), *workers, *queueCap)
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(logw, "coefficientd: draining (deadline %v)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	drainErr := srv.Drain(drainCtx)

	// The API (incl. /healthz) stays up through the drain so probes can
	// watch it; shut it down only once the workers are done.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	if drainErr != nil {
		return fmt.Errorf("forced drain: %w", drainErr)
	}
	fmt.Fprintf(logw, "coefficientd: drained cleanly\n")
	return nil
}
