// The live observability endpoint (`-metrics-addr`): one HTTP listener
// carrying the whole surface — the embedded dashboard (/), the
// coordinator status API (/api/status, /api/units, /api/groups), the SSE
// journal tail (/api/events), Prometheus exposition
// (/metrics/prometheus), the full JSON snapshot (/metrics.json), expvar
// (/debug/vars), the stage breakdown (/stages), a liveness probe
// (/healthz), and net/http/pprof (/debug/pprof/*) so CPU and heap
// profiles can be attached to a campaign mid-flight — "you can't speed up
// what you can't measure" applies to the fuzzer itself, not just the
// programs it mutates.
//
// The endpoint carries profiles and process internals, so it binds
// loopback only: a non-loopback host is refused unless
// ServeOptions.Public is set (the -metrics-public flag).

package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry/spans"
)

// published is the collector behind the process-global expvar variable.
// expvar.Publish is global and panics on re-registration, so the variable
// is registered once and indirects through this pointer; the last
// Serve call wins (one live collector per process is the intended use —
// tests that start several servers share it knowingly).
var published atomic.Pointer[Collector]

var publishOnce sync.Once

func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("alive_mutate", expvar.Func(func() any {
			return published.Load().Snapshot()
		}))
	})
}

// Server is a running observability endpoint.
type Server struct {
	// Addr is the bound address (useful when the requested port was 0).
	Addr      string
	srv       *http.Server
	ln        net.Listener
	done      chan struct{} // closed by Close; terminates SSE streams
	closeOnce sync.Once
}

// ServeOptions selects what the endpoint exposes. Zero-value fields
// disable their routes gracefully (404 with a hint), so one mux serves
// every configuration from a bare collector to the full dashboard.
type ServeOptions struct {
	// Collector feeds /metrics.json, /metrics/prometheus, /stages and
	// /debug/vars.
	Collector *Collector
	// Status feeds /api/status, /api/units, /api/groups.
	Status *StatusPublisher
	// Events feeds /api/events (SSE). Tee the campaign journal into it.
	Events *EventBuffer
	// Spans feeds /api/hotspots (live cost attribution, computed on
	// demand from the deltas collected so far) and flips /healthz's span
	// line to "active".
	Spans *spans.Store
	// Public permits binding a non-loopback host. Off by default: the
	// endpoint exposes pprof and internals.
	Public bool
}

// isLoopbackHost reports whether host names the loopback interface.
func isLoopbackHost(host string) bool {
	if host == "" || host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// Serve starts the observability endpoint on addr (host:port; an empty
// host binds localhost). The server runs until Close.
func Serve(addr string, opts ServeOptions) (*Server, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: bad -metrics-addr %q: %w", addr, err)
	}
	if !opts.Public && !isLoopbackHost(host) {
		return nil, fmt.Errorf("telemetry: refusing non-loopback bind %q without -metrics-public (endpoint exposes pprof and process internals)", addr)
	}
	if host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, port))
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	c := opts.Collector
	published.Store(c)
	publishExpvar()
	done := make(chan struct{})

	writeJSON := func(w http.ResponseWriter, v any) {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(b, '\n'))
	}
	status := func(w http.ResponseWriter) *StatusSnapshot {
		s := opts.Status.Status()
		if s == nil {
			http.Error(w, "status API not enabled (no campaign coordinator attached)", http.StatusNotFound)
		}
		return s
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(dashboardHTML)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		spanState := "off"
		if opts.Spans != nil {
			spanState = "active"
		}
		fmt.Fprintf(w, "ok\nspans: %s\n", spanState)
	})
	mux.HandleFunc("/api/status", func(w http.ResponseWriter, _ *http.Request) {
		if s := status(w); s != nil {
			s.Stages = c.StageRows()
			s.TVCacheHits = c.Counter("tv.cache.hit").Value()
			s.TVCacheMisses = c.Counter("tv.cache.miss").Value()
			s.SATConflicts = c.Counter("sat.conflicts").Value()
			s.TVStaticProved = c.Counter("tv.static.proved").Value()
			writeJSON(w, s)
		}
	})
	mux.HandleFunc("/api/hotspots", func(w http.ResponseWriter, _ *http.Request) {
		if opts.Spans == nil {
			http.Error(w, "hotspot API not enabled (run with -spans-out)", http.StatusNotFound)
			return
		}
		writeJSON(w, spans.Compute(opts.Spans.Units(), opts.Spans.Deterministic(), 10))
	})
	mux.HandleFunc("/api/units", func(w http.ResponseWriter, _ *http.Request) {
		if s := status(w); s != nil {
			writeJSON(w, s.Units)
		}
	})
	mux.HandleFunc("/api/groups", func(w http.ResponseWriter, _ *http.Request) {
		if s := status(w); s != nil {
			writeJSON(w, s.Groups)
		}
	})
	mux.HandleFunc("/api/events", func(w http.ResponseWriter, r *http.Request) {
		if opts.Events == nil {
			http.Error(w, "event stream not enabled (run with a journal)", http.StatusNotFound)
			return
		}
		opts.Events.serveSSE(w, r, done)
	})
	mux.HandleFunc("/metrics/prometheus", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(PrometheusText(c.Snapshot()))
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		b, err := c.Snapshot().MarshalIndentedJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("/stages", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, c.StageBreakdown())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{Addr: ln.Addr().String(), srv: &http.Server{Handler: mux}, ln: ln, done: done}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Close stops the endpoint and terminates open SSE streams (nil-safe).
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() { close(s.done) })
	return s.srv.Close()
}
