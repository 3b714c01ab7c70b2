// Command kvserver fronts any ethkv backend with the kvnet wire protocol:
// a TCP serving layer whose clients coalesce concurrent point operations
// into batched round-trips. It is the remote half of the serving experiments
// — run kvserver on one side and replaybench -serve on the other.
//
// With -metrics-addr the server exposes the kvnet serving metrics
// (per-op latency histograms, batch-size histogram, frame/byte counters)
// plus the backend's instrumented store metrics on a Prometheus /metrics
// endpoint.
//
// Usage:
//
//	kvserver -backend lsm -addr 127.0.0.1:9420
//	kvserver -backend hybrid -addr :9420 -metrics-addr 127.0.0.1:8321
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ethkv/internal/backends"
	"ethkv/internal/kv"
	"ethkv/internal/kvnet"
	"ethkv/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The first signal starts the drain; a second one kills as usual.
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run serves until ctx is done, then drains and closes the store.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kvserver", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:9420", "address to serve the kvnet protocol on")
		dir          = fs.String("dir", "", "working directory (default: temp)")
		metricsAddr  = fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address; empty disables")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "max time to wait for in-flight compactions to drain on shutdown before closing anyway")
		storeFlags   = backends.RegisterFlags(fs, "lsm")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	backend, opts, err := storeFlags.Options()
	if err != nil {
		return err
	}
	if pol := opts.Policy; pol != nil {
		fmt.Fprintf(stdout, "policy: %d classes over %d routes from %s\n",
			len(pol.Classes), len(pol.Routes), storeFlags.Policy)
	}

	workDir := *dir
	if workDir == "" {
		workDir, err = os.MkdirTemp("", "kvserver-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(workDir)
	}

	registry := obs.NewRegistry()
	if *metricsAddr != "" {
		bound, err := obs.Serve(*metricsAddr, registry)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		fmt.Fprintf(stdout, "metrics: http://%s/metrics   pprof: http://%s/debug/pprof/\n", bound, bound)
	}

	store, err := backends.Open(backend, workDir, opts)
	if err != nil {
		return err
	}
	store = kv.Instrument(store, registry, "store", backend)
	defer store.Close()

	srv := kvnet.NewServer(store, kvnet.ServerOptions{Registry: registry})
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	if opts.Shards > 1 {
		fmt.Fprintf(stdout, "kvserver: serving %s backend (%d shards) on %s\n", backend, opts.Shards, bound)
	} else {
		fmt.Fprintf(stdout, "kvserver: serving %s backend on %s\n", backend, bound)
	}

	<-ctx.Done()
	fmt.Fprintln(stdout, "kvserver: shutting down")
	srv.Close()

	// Drain before Close: stop scheduling new compactions and give the
	// in-flight merges a bounded window to finish, so shutdown doesn't race
	// a long compaction. A drain that exceeds -drain-timeout is abandoned
	// (Close still settles safely; the next open resumes the debt).
	start := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- kv.Drain(store) }()
	select {
	case err := <-drained:
		if err != nil {
			fmt.Fprintf(stdout, "kvserver: drain failed after %.2fs: %v\n", time.Since(start).Seconds(), err)
		} else {
			fmt.Fprintf(stdout, "kvserver: drained in-flight compactions in %.2fs\n", time.Since(start).Seconds())
		}
	case <-time.After(*drainTimeout):
		fmt.Fprintf(stdout, "kvserver: drain timed out after %s; closing with compactions still in flight\n", *drainTimeout)
	}
	return nil
}
