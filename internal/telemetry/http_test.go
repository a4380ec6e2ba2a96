package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry/spans"
)

// TestServeMetrics boots the endpoint on an ephemeral localhost port and
// exercises every route a user would hit mid-campaign.
func TestServeMetrics(t *testing.T) {
	c := NewCollector()
	c.SetLabel("command", "test")
	c.Add("mutants", 7)
	c.ObserveStage("tv", 3*time.Millisecond)

	srv, err := Serve("127.0.0.1:0", ServeOptions{Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	// /metrics.json serves a schema-valid live snapshot.
	body := get("/metrics.json")
	snap, err := ValidateSnapshot([]byte(body))
	if err != nil {
		t.Fatalf("/metrics.json is not a valid snapshot: %v", err)
	}
	if snap.Counters["mutants"] != 7 {
		t.Errorf("/metrics.json mutants = %d, want 7", snap.Counters["mutants"])
	}

	// /debug/vars exposes the collector under the alive_mutate expvar.
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["alive_mutate"]; !ok {
		t.Error("/debug/vars is missing the alive_mutate variable")
	}

	// /stages renders the breakdown table.
	if out := get("/stages"); !strings.Contains(out, "tv") {
		t.Errorf("/stages missing the recorded stage:\n%s", out)
	}

	// pprof is wired: cmdline is the cheapest endpoint to probe.
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
}

// TestServeFullSurface boots the complete observability endpoint —
// dashboard, status API, SSE, Prometheus — on one listener and checks
// every route agrees with its source of truth.
func TestServeFullSurface(t *testing.T) {
	c := NewCollector()
	c.SetLabel("command", "test")
	c.Add("mutants", 150)
	c.ObserveStage("tv", 3*time.Millisecond)

	st := NewStatusPublisher()
	snap := statusFixture()
	snap.Schema = ""
	st.Publish(snap)

	events := NewEventBuffer(8)
	events.Add(1, []byte(`{"seq":1,"event":"campaign_start"}`))

	srv, err := Serve("127.0.0.1:0", ServeOptions{Collector: c, Status: st, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string, wantStatus int) (string, *http.Response) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp
	}

	// Without a span store /healthz reports spans off and /api/hotspots
	// 404s with the enabling flag in the hint.
	if body, _ := get("/healthz", http.StatusOK); body != "ok\nspans: off\n" {
		t.Errorf("/healthz = %q", body)
	}
	if body, _ := get("/api/hotspots", http.StatusNotFound); !strings.Contains(body, "-spans-out") {
		t.Errorf("/api/hotspots without a store = %q, want hint naming -spans-out", body)
	}

	// The dashboard serves at exactly /; other paths are 404, not the
	// dashboard (a typoed API URL must not return HTML 200).
	if body, resp := get("/", http.StatusOK); !strings.Contains(body, "<html") {
		t.Errorf("/ is not the dashboard: %.80q", body)
	} else if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("/ Content-Type = %q", ct)
	}
	get("/no-such-page", http.StatusNotFound)

	// /api/status round-trips through the strict validator and carries the
	// stage rows stamped from the live collector.
	body, _ := get("/api/status", http.StatusOK)
	s, err := ValidateStatus([]byte(body))
	if err != nil {
		t.Fatalf("/api/status invalid: %v", err)
	}
	if s.UnitsDone != 2 || len(s.Stages) != 1 || s.Stages[0].Name != "tv" {
		t.Errorf("/api/status = units_done %d, stages %+v", s.UnitsDone, s.Stages)
	}
	if body, _ := get("/api/units", http.StatusOK); !strings.Contains(body, `"state": "running"`) {
		t.Errorf("/api/units missing unit rows:\n%s", body)
	}
	if body, _ := get("/api/groups", http.StatusOK); !strings.Contains(body, `"mutants_budget": 120`) {
		t.Errorf("/api/groups missing group rows:\n%s", body)
	}

	// /metrics/prometheus lints clean and cross-checks against the
	// /metrics.json snapshot from the same collector.
	mj, _ := get("/metrics.json", http.StatusOK)
	msnap, err := ValidateSnapshot([]byte(mj))
	if err != nil {
		t.Fatal(err)
	}
	prom, resp := get("/metrics/prometheus", http.StatusOK)
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics/prometheus Content-Type = %q", ct)
	}
	if err := LintPrometheus([]byte(prom), msnap, 0); err != nil {
		t.Errorf("/metrics/prometheus fails lint against /metrics.json: %v", err)
	}

	// /api/events streams the buffered journal tail over SSE.
	eresp, err := http.Get(fmt.Sprintf("http://%s/api/events", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/api/events Content-Type = %q", ct)
	}
	frame := make([]byte, 256)
	n, err := eresp.Body.Read(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(frame[:n]); !strings.Contains(got, "id: 1") || !strings.Contains(got, "campaign_start") {
		t.Errorf("/api/events first frame = %q", got)
	}

	// Close terminates the SSE stream and is idempotent. The server
	// force-closes connections, so any error is fine — the property under
	// test is that the read returns at all instead of hanging.
	srv.Close()
	io.Copy(io.Discard, eresp.Body) //nolint:errcheck
	srv.Close()
}

// TestServeDisabledRoutes: without a publisher or event buffer the API
// routes 404 with a hint instead of serving garbage.
func TestServeDisabledRoutes(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServeOptions{Collector: NewCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for path, hint := range map[string]string{
		"/api/status":   "status API not enabled",
		"/api/units":    "status API not enabled",
		"/api/groups":   "status API not enabled",
		"/api/events":   "event stream not enabled",
		"/api/hotspots": "hotspot API not enabled",
	} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), hint) {
			t.Errorf("GET %s = %d %q, want 404 mentioning %q", path, resp.StatusCode, body, hint)
		}
	}
}

// TestServeRefusesPublicBind: non-loopback hosts need the explicit
// Public opt-in, because the endpoint exposes pprof and internals — and
// the refusal covers span-carrying configurations too: a hotspot API
// full of seed-function names must not leak onto a public interface by
// accident either.
func TestServeRefusesPublicBind(t *testing.T) {
	_, err := Serve("0.0.0.0:0", ServeOptions{Collector: NewCollector()})
	if err == nil || !strings.Contains(err.Error(), "-metrics-public") {
		t.Fatalf("non-loopback bind without Public: err = %v, want refusal", err)
	}
	_, err = Serve("0.0.0.0:0", ServeOptions{Collector: NewCollector(), Spans: spans.NewStore(false)})
	if err == nil || !strings.Contains(err.Error(), "-metrics-public") {
		t.Fatalf("non-loopback bind with span store, without Public: err = %v, want refusal", err)
	}
	srv, err := Serve("0.0.0.0:0", ServeOptions{Collector: NewCollector(), Spans: spans.NewStore(false), Public: true})
	if err != nil {
		t.Fatalf("public bind with opt-in failed: %v", err)
	}
	srv.Close()
}

// TestServeHotspots: with a span store attached, /healthz reports active
// recording and /api/hotspots serves a schema-valid live report computed
// from the store's units.
func TestServeHotspots(t *testing.T) {
	store := spans.NewStore(true)
	rec := store.NewRecorder("g", "u", 0, 42)
	rec.BeginMutant(0, 9)
	rec.Func("f")
	rec.Query(spans.QueryInfo{Verdict: "valid", FP: "aa", Cache: spans.CacheMiss, Conflicts: 11, Propagations: 40}, time.Millisecond)
	rec.EndMutant(false)
	store.Add(rec.Finish(1, false))

	srv, err := Serve("127.0.0.1:0", ServeOptions{Collector: NewCollector(), Spans: store})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok\nspans: active\n" {
		t.Errorf("/healthz = %q", body)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/api/hotspots", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/api/hotspots = %d %q", resp.StatusCode, body)
	}
	h, err := spans.ValidateHotspots(body)
	if err != nil {
		t.Fatalf("/api/hotspots invalid: %v", err)
	}
	if h.Queries != 1 || h.Conflicts != 11 || len(h.TopFunctions) != 1 || h.TopFunctions[0].Name != "f" {
		t.Errorf("/api/hotspots = %+v", h)
	}
}

// TestServeMetricsBadAddr: a malformed address must fail up front, not at
// first request.
func TestServeMetricsBadAddr(t *testing.T) {
	if _, err := Serve("no-port-here", ServeOptions{Collector: NewCollector()}); err == nil {
		t.Error("expected error for address without port")
	}
}

// TestServeMetricsEmptyHost defaults to localhost rather than all
// interfaces (the endpoint exposes pprof, so this is a safety property).
func TestServeMetricsEmptyHost(t *testing.T) {
	srv, err := Serve(":0", ServeOptions{Collector: NewCollector()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.HasPrefix(srv.Addr, "127.0.0.1:") {
		t.Errorf("empty host bound %s, want 127.0.0.1", srv.Addr)
	}
}
