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
	"flag"
	"fmt"
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
	var (
		addr         = flag.String("addr", "127.0.0.1:9420", "address to serve the kvnet protocol on")
		dir          = flag.String("dir", "", "working directory (default: temp)")
		metricsAddr  = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address; empty disables")
		workers      = flag.Int("workers", 0, "request-executing goroutines per connection (0 = default)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max time to wait for in-flight compactions to drain on shutdown before closing anyway")
		storeFlags   = backends.RegisterFlags(flag.CommandLine, "lsm")
	)
	flag.Parse()

	backend, opts, err := storeFlags.Options()
	if err != nil {
		log.Fatal(err)
	}
	if pol := opts.Policy; pol != nil {
		fmt.Printf("policy: %d classes over %d routes from %s\n",
			len(pol.Classes), len(pol.Routes), storeFlags.Policy)
	}

	workDir := *dir
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "kvserver-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(workDir)
	}

	registry := obs.NewRegistry()
	if *metricsAddr != "" {
		bound, err := obs.Serve(*metricsAddr, registry)
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		fmt.Printf("metrics: http://%s/metrics   pprof: http://%s/debug/pprof/\n", bound, bound)
	}

	store, err := backends.Open(backend, workDir, opts)
	if err != nil {
		log.Fatal(err)
	}
	store = kv.Instrument(store, registry, "store", backend)
	defer store.Close()

	srv := kvnet.NewServer(store, kvnet.ServerOptions{
		Workers:  *workers,
		Registry: registry,
	})
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	if opts.Shards > 1 {
		fmt.Printf("kvserver: serving %s backend (%d %s-mode shards) on %s\n", backend, opts.Shards, opts.ShardMode, bound)
	} else {
		fmt.Printf("kvserver: serving %s backend on %s\n", backend, bound)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("kvserver: shutting down")
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
			fmt.Printf("kvserver: drain failed after %.2fs: %v\n", time.Since(start).Seconds(), err)
		} else {
			fmt.Printf("kvserver: drained in-flight compactions in %.2fs\n", time.Since(start).Seconds())
		}
	case <-time.After(*drainTimeout):
		fmt.Printf("kvserver: drain timed out after %s; closing with compactions still in flight\n", *drainTimeout)
	}
}
