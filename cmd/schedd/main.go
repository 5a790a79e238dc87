// Command schedd is the Fading-R-LS scheduling daemon: a long-running
// HTTP service answering one-shot link-capacity queries over the
// registered solvers.
//
//	schedd -addr :8080 -debug-addr 127.0.0.1:6060
//
// POST /v1/solve takes a JSON link set plus model parameters and
// returns the activation set (with solver trace stats) and per-link
// success probabilities; POST /v1/solve/batch solves one link set
// under many algorithm/ε configs with a single interference-field
// build; POST /v1/traffic runs a queued-traffic simulation (arrival
// process, queue policy, deadline-truncated) over the same cached
// interference fields; POST /v1/session opens a streaming scheduling
// session — the client streams move/add/remove/retune events over one
// long-lived request and receives re-solved schedule deltas, resuming
// after a disconnect via GET /v1/session/{id}/deltas?seq=N; see the
// README's "Serving" and "Streaming sessions" sections for the
// schemas.
// GET /v1/algorithms lists the registry; GET /metrics serves
// Prometheus text exposition; the debug address additionally serves
// net/http/pprof and should stay on loopback. Structured access logs (-log-format, -log-level) carry the
// same per-request trace ID the X-Trace-Id response header reports.
// Every request is span-traced into a bounded flight recorder
// (-trace-ring, -trace-sample): GET /debug/requests lists recent and
// slowest traces, GET /debug/requests/{traceID} exports one as Chrome
// trace_event JSON (load in chrome://tracing or Perfetto), and
// GET /debug/state snapshots live sessions, cache residency, and pool
// occupancy. SIGINT/SIGTERM drain in-flight solves before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

// run boots the daemon with explicit args and log sink, serves until
// ctx is canceled, then drains in-flight requests. Tests drive it end
// to end: the actual listen addresses are announced on out.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "API listen address")
		debugAddr = fs.String("debug-addr", "127.0.0.1:6060", "private pprof listen address ('' disables)")
		workers   = fs.Int("workers", 0, "max concurrent solves (0 = GOMAXPROCS)")
		cacheMB   = fs.Int("cache-mb", 4, "result cache budget in MiB of response bodies (negative disables)")
		prepCache = fs.Int("prep-cache", 16, "prepared interference-field cache capacity in link sets (negative disables)")
		maxBody   = fs.Int64("max-body", 8<<20, "request body size limit in bytes")
		maxLinks  = fs.Int("max-links", 20000, "per-request instance size limit")
		timeout   = fs.Duration("timeout", 30*time.Second, "default per-request solve deadline")
		maxTO     = fs.Duration("max-timeout", 2*time.Minute, "largest per-request deadline a client may ask for")
		maxSess   = fs.Int("max-sessions", 256, "max concurrently open streaming sessions (negative disables sessions)")
		sessTTL   = fs.Duration("session-ttl", 5*time.Minute, "evict sessions idle (no event, no live stream) this long")
		traceRing = fs.Int("trace-ring", 128, "flight-recorder capacity in retained request traces (negative disables span tracing)")
		traceSmpl = fs.Int("trace-sample", 1, "keep every Nth non-outlier trace (negative keeps outliers only; errors and slow requests are always kept)")
		drain     = fs.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight solves")
		logFormat = fs.String("log-format", "text", "structured log format: text or json")
		logLevel  = fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("bad -log-format %q (want text or json)", *logFormat)
	}
	logger := obs.NewLogger(out, obs.LogConfig{Level: level, JSON: *logFormat == "json"})

	srv := server.New(server.Config{
		Workers:           *workers,
		CacheBytes:        int64(*cacheMB) << 20,
		PreparedCacheSize: *prepCache,
		MaxBodyBytes:      *maxBody,
		MaxLinks:          *maxLinks,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTO,
		MaxSessions:       *maxSess,
		SessionTTL:        *sessTTL,
		TraceRing:         *traceRing,
		TraceSampleEvery:  *traceSmpl,
		Logger:            logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "schedd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	errs := make(chan error, 2)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errs <- err
		}
	}()

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			httpSrv.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Fprintf(out, "schedd: debug (pprof) on %s\n", dln.Addr())
		debugSrv = &http.Server{Handler: srv.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.Serve(dln); !errors.Is(err, http.ErrServerClosed) {
				errs <- err
			}
		}()
	}

	select {
	case err := <-errs:
		return err
	case <-ctx.Done():
	}

	// Drain: close the session layer first — live event streams and
	// long-polls are long-lived requests that would otherwise hold
	// Shutdown open for the whole budget — then stop accepting and let
	// in-flight solves finish under their own request deadlines, capped
	// by the drain budget.
	fmt.Fprintf(out, "schedd: shutting down, draining in-flight requests\n")
	srv.Close()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = httpSrv.Shutdown(drainCtx)
	if debugSrv != nil {
		if derr := debugSrv.Shutdown(drainCtx); err == nil {
			err = derr
		}
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintf(out, "schedd: clean shutdown\n")
	return nil
}
