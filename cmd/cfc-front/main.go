// Command cfc-front is the horizontal front door: it makes N cfc-serve
// replicas look like one server. Campaign batches route by session
// fingerprint over a consistent-hash ring, so repeated campaigns on one
// configuration always land on the replica already holding that warm
// session; per-tenant weighted-fair queues with bounded depth and
// per-replica in-flight caps shed overload as 429 + Retry-After instead
// of queueing without bound; and ?fanout=N splits one campaign into N
// contiguous sample shards across replicas, merging the partial reports
// (inject.MergeReports) into a record byte-identical to a single-server
// run.
//
//	POST /v1/campaigns            route a batch to its home replica
//	POST /v1/campaigns?fanout=N   shard each campaign over N replicas, merge
//	GET  /v1/replicas             ring membership and per-replica health
//	GET  /v1/metrics              fleet-merged metrics snapshot (JSON)
//	GET  /metrics                 fleet-merged Prometheus exposition
//	GET  /healthz                 front readiness (503 with no ready replicas)
//
// Replica membership is static (-replicas) but readiness is live: the
// front polls each replica's /healthz and ejects draining or
// unreachable replicas from the ring, re-routing their sessions to
// survivors (which restore warm state from the shared artifact store,
// when one is configured) and failing their queued requests fast.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/front"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8320", "listen address")
		replicas   = flag.String("replicas", "", "comma-separated cfc-serve base URLs (required)")
		vnodes     = flag.Int("vnodes", front.DefaultVnodes, "virtual nodes per replica on the hash ring")
		queueDepth = flag.Int("queue-depth", front.DefaultQueueDepth, "per-tenant admission queue depth (full queue answers 429)")
		replicaCap = flag.Int("replica-cap", front.DefaultReplicaCap, "in-flight request cap per replica")
		weights    = flag.String("tenant-weights", "", "fair-share weights as tenant=w pairs, e.g. ci=3,adhoc=1")
		poll       = flag.Duration("poll", 500*time.Millisecond, "replica health poll interval")
	)
	flag.Parse()

	if *replicas == "" {
		fatalIf(fmt.Errorf("-replicas is required (comma-separated cfc-serve URLs)"))
	}
	cfg := front.Config{
		Vnodes:       *vnodes,
		QueueDepth:   *queueDepth,
		ReplicaCap:   *replicaCap,
		PollInterval: *poll,
		Weights:      map[string]float64{},
	}
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			cfg.Replicas = append(cfg.Replicas, strings.TrimRight(r, "/"))
		}
	}
	if *weights != "" {
		for _, pair := range strings.Split(*weights, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				fatalIf(fmt.Errorf("bad -tenant-weights entry %q (want tenant=weight)", pair))
			}
			w, err := strconv.ParseFloat(val, 64)
			if err != nil || w <= 0 {
				fatalIf(fmt.Errorf("bad weight in %q", pair))
			}
			cfg.Weights[name] = w
		}
	}

	f := front.New(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	f.Start(ctx)

	hs := &http.Server{Addr: *addr, Handler: f.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "cfc-front: listening on http://%s over %d replica(s)\n",
			*addr, len(cfg.Replicas))
		errc <- hs.ListenAndServe()
	}()
	select {
	case err := <-errc:
		fatalIf(err)
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "cfc-front: shutting down")
		hs.Shutdown(context.Background())
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfc-front:", err)
		os.Exit(1)
	}
}
