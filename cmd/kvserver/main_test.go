package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ethkv/internal/kvnet"
)

// TestServeCoalescesOps serves an LSM store in-process, writes to it through
// one batching client from 16 concurrent workers (as replaybench -serve
// does), and requires the server's live /metrics to show that ops coalesced
// into shared frames. It then stops the server the way a signal does.
func TestServeCoalescesOps(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	defer pr.Close()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0", "-dir", t.TempDir()}, pw)
		pw.Close()
	}()
	var addr, metricsAddr string
	metricsLine := regexp.MustCompile(`^metrics: http://(\S+)/metrics`)
	for sc := bufio.NewScanner(pr); addr == "" && sc.Scan(); {
		if m := metricsLine.FindStringSubmatch(sc.Text()); m != nil {
			metricsAddr = m[1]
		}
		if a, ok := strings.CutPrefix(sc.Text(), "kvserver: serving lsm backend on "); ok {
			addr = a
		}
	}
	if addr == "" || metricsAddr == "" {
		t.Fatalf("server never came up: %v", <-done)
	}
	var rest bytes.Buffer
	copied := make(chan struct{})
	go func() { io.Copy(&rest, pr); close(copied) }()

	c, err := kvnet.Dial(addr, kvnet.ClientOptions{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if err := c.Put([]byte(fmt.Sprintf("w%02d-%04d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.Close()

	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^ethkv_server_coalesced_ops_total (\d+)`).FindSubmatch(metrics)
	if m == nil {
		t.Fatalf("no ethkv_server_coalesced_ops_total on /metrics:\n%s", metrics)
	}
	if n, _ := strconv.Atoi(string(m[1])); n == 0 {
		t.Fatal("the server saw no coalesced ops")
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-copied
	if !strings.Contains(rest.String(), "kvserver: drained") {
		t.Fatalf("no drain on shutdown:\n%s", rest.String())
	}
}

// TestServeRefusesOtherShardCount: a -dir first served unsharded is refused
// at -shards 2 — the server exits with the layout error instead of serving
// a router that finds none of the stored keys.
func TestServeRefusesOtherShardCount(t *testing.T) {
	dir := t.TempDir()
	stopped, cancel := context.WithCancel(context.Background())
	cancel() // serve, then shut down at once
	var out bytes.Buffer
	if err := run(stopped, []string{"-addr", "127.0.0.1:0", "-dir", dir, "-shards", "1"}, &out); err != nil {
		t.Fatalf("first run: %v\n%s", err, out.String())
	}
	out.Reset()
	err := run(stopped, []string{"-addr", "127.0.0.1:0", "-dir", dir, "-shards", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("-shards 2 over a 1-shard -dir: %v, want a refusal naming shards", err)
	}
	if strings.Contains(out.String(), "kvserver: serving") {
		t.Fatalf("the refused store was served:\n%s", out.String())
	}
}
