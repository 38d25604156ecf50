// Command cfc-serve runs the batch injection service: an HTTP API over a
// warm-session registry, so repeated campaigns on the same configuration
// pay the translator warm-up and the checkpoint reference recording once —
// and, with -artifact-dir, not even once per process.
//
//	POST /v1/campaigns   {"workload":"164.gzip","scale":0.05,"technique":"RCF",
//	                      "style":"CMOVcc","policy":"ALLBB","ckpt_interval":-1,
//	                      "campaigns":[{"seed":1,"samples":200}]}
//	                     → NDJSON, one record per campaign as it completes
//	                       ("progress_ms":N interleaves live progress frames)
//	GET  /v1/campaigns/{id}/progress   poll a running batch's progress
//	POST /v1/bench       run the bench suite (figures 12/14/15, baseline,
//	                     ablations, coverage matrix) through the warm
//	                     registry → NDJSON rows, tables and span timings
//	GET  /v1/sessions    warm-session inventory
//	GET  /v1/version     build and configuration info
//	GET  /v1/metrics     metrics snapshot as JSON (what cfc-front merges)
//	GET  /metrics        Prometheus text exposition (incl. Go runtime gauges)
//	GET  /healthz        readiness: {"status":"ok|draining|restoring"}, 503 while
//	                     draining so front doors and probes eject the replica
//
// -debug-addr serves net/http/pprof on a second loopback listener.
//
// The campaign cell cache (see internal/graph) is on by default, in
// memory; -graph-cache off disables it and -graph-cache <dir> persists it.
//
// The warm-artifact tier (see internal/artifact) is the one place warm
// state outlives the process, and it distributes that state across
// replicas: -artifact-dir keeps a local content-addressed store,
// -artifact-url fetches/publishes against a remote store (cfc-artifact
// or another replica's -artifact-addr), and -artifact-addr serves this
// process's store on a second listener. A cold replica pointed at a warm
// store builds sessions with zero reference recordings and zero block
// translations; any verification failure degrades to a local build.
//
// Reports are byte-identical to the equivalent cfc-inject invocation for
// every worker count and cache temperature. SIGINT/SIGTERM drains in-flight
// campaigns before exiting; a second signal cancels them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -debug-addr serves the default mux's profiles
	"os"
	"os/signal"
	"syscall"

	"repro/internal/artifact"
	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/session"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8321", "listen address")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
		maxSessions  = flag.Int("max-sessions", 64, "warm sessions kept before LRU eviction (<=0 unbounded)")
		artifactDir  = flag.String("artifact-dir", "", "enable the warm-artifact tier with a local store under this directory")
		artifactURL  = flag.String("artifact-url", "", "fetch/publish warm artifacts against this remote store (enables the tier)")
		artifactAddr = flag.String("artifact-addr", "", "serve this process's artifact store on a second listener (enables the tier)")
	)
	app := cli.App{GraphCache: "on"} // the cell cache defaults to memory only
	app.BindFlags(flag.CommandLine, cli.Graph)
	flag.Parse()
	fatalIf(app.Open())

	// The server always carries a live registry for /metrics; -metrics
	// additionally snapshots it to a file on exit.
	reg := app.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The warm-artifact tier: any artifact flag enables the client; the
	// local store is memory-only unless -artifact-dir persists it.
	var artifacts *artifact.Client
	var store *artifact.Store
	if *artifactDir != "" || *artifactURL != "" || *artifactAddr != "" {
		store = artifact.NewStore(*artifactDir)
		artifacts = &artifact.Client{BaseURL: *artifactURL, Local: store, Metrics: reg}
	}
	registry := session.NewRegistry(session.Config{
		MaxSessions: *maxSessions,
		Metrics:     reg,
		Graph:       app.Graph(),
		Artifacts:   artifacts,
	})
	srv := &session.Server{Registry: registry, Metrics: reg}

	if *artifactAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "cfc-serve: artifact store on http://%s\n", *artifactAddr)
			if err := http.ListenAndServe(*artifactAddr, artifact.Handler(store)); err != nil {
				fmt.Fprintln(os.Stderr, "cfc-serve: artifact listener:", err)
			}
		}()
	}

	if *debugAddr != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "cfc-serve: pprof on http://%s/debug/pprof/\n", *debugAddr)
			// http.DefaultServeMux carries the net/http/pprof handlers.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "cfc-serve: debug listener:", err)
			}
		}()
	}

	// First signal: stop accepting and drain in-flight campaigns. Second:
	// cancel the campaigns themselves (every handler's request context is
	// derived from runCtx via BaseContext).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx, cancelRuns := context.WithCancel(context.Background())
	defer cancelRuns()

	// One mux: the bench suite (package bench, which imports session)
	// mounts as an extra route on the session server's own mux, behind the
	// same request bounds, error shape and batch tracking.
	mux := srv.Handler(
		session.Route{Pattern: "POST /v1/bench", Handler: bench.Handler(srv)},
	)

	hs := &http.Server{
		Addr:        *addr,
		Handler:     mux,
		BaseContext: func(net.Listener) context.Context { return runCtx },
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "cfc-serve: listening on http://%s\n", *addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// The listener died on its own; still flush and close the
		// observability sinks before exiting.
		if cerr := app.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "cfc-serve:", cerr)
		}
		fatalIf(err)
	case <-ctx.Done():
		stop() // restore default handling: a second signal now cancels below
		fmt.Fprintln(os.Stderr, "cfc-serve: draining (signal again to abort campaigns)")
		second, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer cancel()
		go func() {
			<-second.Done()
			cancelRuns()
		}()
		// Drain in three steps: refuse new work with a JSON 503 while the
		// listener still accepts (so clients and the front door see a clean
		// fast-fail, never connection-refused, and /healthz flips to
		// draining), wait for admitted campaigns to finish, then close the
		// listener itself.
		srv.StartDrain()
		srv.DrainWait()
		if err := hs.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "cfc-serve: shutdown:", err)
		}
	}
	fatalIf(app.Close())
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfc-serve:", err)
		os.Exit(1)
	}
}
