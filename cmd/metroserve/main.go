// metroserve is the METRO simulation service: a long-running daemon
// that accepts mf1 scenario specs over HTTP, executes them on a bounded
// worker fleet under the full metrofuzz oracle battery, streams
// cycle-stamped progress and telemetry gauges as Server-Sent Events,
// and memoizes results in a content-addressed cache so a repeated
// submission is served from stored bytes without re-simulating.
//
// Usage:
//
//	metroserve [-addr host:port] [-workers n] [-queue n]
//	           [-cache-bytes n] [-job-timeout d] [-drain-timeout d]
//	           [-progress n] [-gauge-every n]
//	           [-log-format text|json] [-debug-addr host:port]
//
// Operational surface: /v1/metrics serves the Prometheus text
// exposition, /v1/healthz is pure liveness, /v1/readyz reports
// load-aware readiness, and structured logs (one line per request and
// per job-state transition) go to stderr in the -log-format encoding.
// -debug-addr opts into a second listener serving net/http/pprof under
// /debug/pprof/ — kept off the main address so profiling is never
// exposed by the serving port.
//
// The daemon prints one line, `metroserve listening on <addr>`, once
// the socket is bound (with -addr :0 the line carries the kernel-chosen
// port — the e2e harness relies on this; with -debug-addr a
// `metroserve debug listening on <addr>` line follows), and exits 0
// after a graceful drain on SIGINT/SIGTERM. See docs/SERVING.md for the
// HTTP API.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"metro/internal/serve"
)

// newLogger builds the daemon's structured logger for a -log-format
// value, or returns false for an unknown format.
func newLogger(format string) (*slog.Logger, bool) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), true
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), true
	}
	return nil, false
}

// debugMux builds the pprof handler tree for -debug-addr. Only the
// profiling endpoints are mounted — the debug listener deliberately
// serves nothing else.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// readHeaderTimeout bounds how long a connection may take to deliver a
// request's headers, so a client that stalls mid-header cannot pin a
// connection forever. It stops at the headers: SSE responses stream for
// as long as their job runs, so the servers set no write deadline.
const readHeaderTimeout = 5 * time.Second

// idleTimeout bounds how long a keep-alive connection may wait between
// requests before the servers close it, so idle clients cannot pin
// connections either. A request in progress — a wait=1 submission, an SSE
// stream — is not idle, and the timeout never cuts it.
const idleTimeout = 5 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:7905", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker fleet size")
	queue := flag.Int("queue", 64, "admission queue depth; submissions beyond it get 429")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result cache LRU byte budget")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-job execution deadline (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain budget after SIGTERM before in-flight jobs are canceled")
	progress := flag.Uint64("progress", 0, "cycle period of SSE progress frames (0 selects the metrofuzz default)")
	gaugeEvery := flag.Uint64("gauge-every", 64, "forward only gauge samples on this cycle grid to SSE subscribers (0 forwards all)")
	logFormat := flag.String("log-format", "text", "structured log encoding on stderr: text or json")
	debugAddr := flag.String("debug-addr", "", "optional second listen address serving net/http/pprof under /debug/pprof/ (empty disables)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "metroserve: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	// Zero workers would admit jobs no one runs, and a negative queue
	// depth cannot size the admission queue.
	for _, f := range []struct {
		name string
		v    int
	}{{"workers", *workers}, {"queue", *queue}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "metroserve: -%s %d is not a positive count\n", f.name, f.v)
			os.Exit(2)
		}
	}
	logger, ok := newLogger(*logFormat)
	if !ok {
		fmt.Fprintf(os.Stderr, "metroserve: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheBytes:     *cacheBytes,
		JobTimeout:     *jobTimeout,
		ProgressPeriod: *progress,
		GaugeEvery:     *gaugeEvery,
		Logger:         logger,
	})

	// The listening line tells a supervisor it may signal the daemon, so the
	// drain handler is in place before it prints.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metroserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("metroserve listening on %s\n", ln.Addr())

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metroserve: debug listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metroserve debug listening on %s\n", dln.Addr())
		debugSrv = &http.Server{Handler: debugMux(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
		go debugSrv.Serve(dln)
	}

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case sig := <-sigc:
		fmt.Printf("metroserve: %v, draining\n", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "metroserve: %v\n", err)
		os.Exit(1)
	}

	// Drain first so new submissions see 503 while queued work finishes,
	// then close the HTTP side. The drain budget doubles as the shutdown
	// budget for straggling streams.
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	sctx, scancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	if drainErr != nil {
		fmt.Printf("metroserve: drain deadline hit; in-flight jobs were canceled\n")
	}
	fmt.Printf("metroserve: drained\n")
}
