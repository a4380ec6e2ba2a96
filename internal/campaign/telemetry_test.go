package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/spans"
)

// lockedBuf is a concurrency-safe bytes.Buffer for the journal's flusher.
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func runTelemetered(t *testing.T, workers int, sink *telemetry.Sink, store *spans.Store) *BugReport {
	t.Helper()
	return mustRunBugs(t, context.Background(), BugConfig{
		Budget:         120,
		TVBudget:       4000,
		Seed:           7,
		Passes:         "O2",
		Workers:        workers,
		Only:           testIssues,
		Stderr:         io.Discard,
		Telemetry:      sink,
		Spans:          store,
		StallThreshold: time.Hour, // armed but must never fire on this tiny run
	})
}

// TestCampaignTelemetryInvariance is the tentpole's acceptance criterion:
// the campaign result table is byte-identical with observability off and
// with the full stack on — metrics, journal, stall watchdog, status
// publisher, a live HTTP server, an attached SSE consumer, and a client
// hammering /api/status mid-run — at workers 1 and 8. Observability is
// strictly write-only with respect to results.
func TestCampaignTelemetryInvariance(t *testing.T) {
	baseline := runSmall(t, 1).Table()
	spansFiles := map[int]string{}
	for _, workers := range []int{1, 8} {
		store := spans.NewStore(true)
		var buf lockedBuf
		sink := &telemetry.Sink{
			Metrics: telemetry.NewCollector(),
			Journal: telemetry.NewJournal(&buf),
			Status:  telemetry.NewStatusPublisher(),
			Shard:   -1,
		}
		events := telemetry.NewEventBuffer(0)
		sink.Journal.Tee(events)
		srv, err := telemetry.Serve("127.0.0.1:0", telemetry.ServeOptions{
			Collector: sink.Metrics,
			Status:    sink.Status,
			Events:    events,
			Spans:     store,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Live consumers for the duration of the run: a status poller that
		// validates every response, and an SSE tail draining /api/events.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var polls, sseBytes atomic.Int64
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(fmt.Sprintf("http://%s/api/status", srv.Addr))
				if err != nil {
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					select {
					case <-stop:
						// srv.Close cut the response off at the end of the
						// run: a truncated body, not an invalid document.
						return
					default:
					}
					t.Errorf("workers=%d: mid-run /api/status read: %v", workers, err)
					return
				}
				if _, err := telemetry.ValidateStatus(body); err != nil {
					// The error on a line of its own, then the head of the
					// body: a whole mid-run document can run to tens of KB.
					t.Errorf("workers=%d: mid-run /api/status invalid:\n%v\n--- body (%d bytes, first 2000) ---\n%.2000s",
						workers, err, len(body), body)
					return
				}
				polls.Add(1)
				time.Sleep(5 * time.Millisecond)
			}
		}()
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("http://%s/api/events", srv.Addr))
			if err != nil {
				t.Errorf("workers=%d: /api/events: %v", workers, err)
				return
			}
			defer resp.Body.Close()
			n, _ := io.Copy(io.Discard, resp.Body) // returns when srv closes
			sseBytes.Store(n)
		}()

		rep := runTelemetered(t, workers, sink, store)
		close(stop)
		srv.Close()
		wg.Wait()
		if err := sink.Journal.Close(); err != nil {
			t.Fatalf("workers=%d: journal close: %v", workers, err)
		}
		if polls.Load() == 0 {
			t.Errorf("workers=%d: status poller never completed a poll", workers)
		}
		if sseBytes.Load() == 0 {
			t.Errorf("workers=%d: SSE consumer saw no event bytes", workers)
		}
		if got := rep.Table(); got != baseline {
			t.Errorf("workers=%d: observability changed the result table:\n--- baseline ---\n%s--- with observability ---\n%s",
				workers, baseline, got)
		}
		var spansBuf bytes.Buffer
		if _, err := store.WriteTo(&spansBuf); err != nil {
			t.Fatalf("workers=%d: spans write: %v", workers, err)
		}
		if _, err := spans.Read(bytes.NewReader(spansBuf.Bytes())); err != nil {
			t.Errorf("workers=%d: recorded spans file invalid: %v", workers, err)
		}
		spansFiles[workers] = spansBuf.String()
	}
	// Deterministic-mode span recording is itself worker-count-invariant:
	// the canonical (group, index) merge makes the file byte-identical at
	// workers 1 and 8.
	if spansFiles[1] != spansFiles[8] {
		t.Errorf("deterministic spans file differs between workers 1 and 8:\n--- w1 ---\n%.2000s\n--- w8 ---\n%.2000s",
			spansFiles[1], spansFiles[8])
	}
	if !strings.Contains(spansFiles[1], spans.SchemaV1) || spansFiles[1] == "" {
		t.Errorf("spans file missing schema header:\n%.200s", spansFiles[1])
	}
}

// TestCampaignResumeObservability extends the resume tests to the HTTP
// surface: after a kill + checkpoint resume, the live /metrics.json,
// /metrics/prometheus, /api/status, and /api/hotspots endpoints must all
// reflect the MERGED campaign — pre-kill counters folded in via
// MergeSnapshot and restored units' span deltas replayed from the
// checkpoint, not just the resumed leg's.
func TestCampaignResumeObservability(t *testing.T) {
	// Reference: an uninterrupted campaign at yet another worker count;
	// its deterministic-mode hotspot report is the byte-identity target
	// for the killed-and-resumed campaign below.
	refStore := spans.NewStore(true)
	refCfg := resumeCfg(4, nil)
	refCfg.Spans = refStore
	mustRunBugs(t, context.Background(), refCfg)
	refHotspots, err := json.MarshalIndent(spans.Compute(refStore.Units(), true, 10), "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	ckptDir := t.TempDir()
	killSink := &telemetry.Sink{Metrics: telemetry.NewCollector(), Shard: -1}
	killCfg := resumeCfg(4, nil)
	killCfg.CheckpointDir = ckptDir
	killCfg.StopAfterUnits = 3
	killCfg.Telemetry = killSink
	killCfg.Spans = spans.NewStore(true)
	if _, err := RunBugs(context.Background(), killCfg); err != nil {
		t.Fatalf("killed run: %v", err)
	}
	preKill := killSink.Metrics.Counter("mutants").Value()
	if preKill <= 0 {
		t.Fatal("killed run recorded no mutants; merge assertions would be vacuous")
	}

	resSink := &telemetry.Sink{
		Metrics: telemetry.NewCollector(),
		Status:  telemetry.NewStatusPublisher(),
		Shard:   -1,
	}
	resStore := spans.NewStore(true)
	srv, err := telemetry.Serve("127.0.0.1:0", telemetry.ServeOptions{
		Collector: resSink.Metrics,
		Status:    resSink.Status,
		Spans:     resStore,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resCfg := resumeCfg(2, nil)
	resCfg.CheckpointDir = ckptDir
	resCfg.Resume = true
	resCfg.Telemetry = resSink
	resCfg.Spans = resStore
	rep := mustRunBugs(t, context.Background(), resCfg)
	if rep.Restored == 0 {
		t.Fatal("resumed run restored nothing")
	}

	get := func(path string) []byte {
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
		return body
	}

	// The merged counter covers at least the whole campaign's per-unit
	// mutant total (it can exceed it: units in flight at the kill point
	// had already spent mutants and re-run from scratch on resume — the
	// counter measures work executed) and strictly exceeds the pre-kill
	// leg alone, proving MergeSnapshot folded the checkpoint in without
	// losing the resumed leg.
	snap, err := telemetry.ValidateSnapshot(get("/metrics.json"))
	if err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	wantMutants := int64(rep.Agg.Total().Iterations)
	merged := snap.Counters["mutants"]
	if merged < wantMutants {
		t.Errorf("/metrics.json mutants = %d, below campaign total %d (pre-kill counters lost?)", merged, wantMutants)
	}
	if merged <= preKill {
		t.Errorf("/metrics.json mutants = %d, not above pre-kill %d (MergeSnapshot lost the resumed leg?)",
			merged, preKill)
	}

	if err := telemetry.LintPrometheus(get("/metrics/prometheus"), snap, 0); err != nil {
		t.Errorf("/metrics/prometheus disagrees with /metrics.json on the resumed run: %v", err)
	}

	s, err := telemetry.ValidateStatus(get("/api/status"))
	if err != nil {
		t.Fatalf("/api/status: %v", err)
	}
	if s.UnitsRestored != rep.Restored {
		t.Errorf("/api/status units_restored = %d, report restored %d", s.UnitsRestored, rep.Restored)
	}
	if s.UnitsDone+s.UnitsSkipped != s.UnitsTotal || s.UnitsRunning != 0 {
		t.Errorf("/api/status not settled after the run: %+v", s)
	}
	if s.Mutants != merged {
		t.Errorf("/api/status mutants = %d, /metrics.json says %d", s.Mutants, merged)
	}

	// Cost attribution survives the kill: restored units' span deltas are
	// replayed from the checkpoint, so the resumed campaign's hotspot
	// report — at a different worker count than the reference — is
	// byte-identical to the uninterrupted run's.
	resHotspots, err := json.MarshalIndent(spans.Compute(resStore.Units(), true, 10), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resHotspots, refHotspots) {
		t.Errorf("resumed hotspot report differs from the uninterrupted reference:\n--- reference ---\n%s\n--- resumed ---\n%s",
			refHotspots, resHotspots)
	}

	// The same report is live on /api/hotspots.
	live, err := spans.ValidateHotspots(get("/api/hotspots"))
	if err != nil {
		t.Fatalf("/api/hotspots: %v", err)
	}
	liveJSON, err := json.MarshalIndent(live, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, resHotspots) {
		t.Errorf("/api/hotspots disagrees with the store:\n%s\nvs\n%s", liveJSON, resHotspots)
	}
}

// TestCampaignJournalEvents checks the journal contract end to end on a
// real (small) campaign: valid JSON per line, agreeing seq/ts order, and
// the lifecycle events present with sane shard ids.
func TestCampaignJournalEvents(t *testing.T) {
	var buf lockedBuf
	sink := &telemetry.Sink{
		Metrics: telemetry.NewCollector(),
		Journal: telemetry.NewJournal(&buf),
		Shard:   -1,
	}
	rep := runTelemetered(t, 4, sink, nil)
	if err := sink.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	if rep.Found == 0 {
		t.Fatal("campaign found nothing; journal assertions would be vacuous")
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	counts := map[string]int{}
	var prevSeq int64
	starts, finishes := 0, 0
	for i, line := range lines {
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if ev.Seq != prevSeq+1 {
			t.Fatalf("line %d: seq %d after %d", i, ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		counts[ev.Type]++
		switch ev.Type {
		case "campaign_start", "campaign_finish":
			if ev.Shard != -1 {
				t.Errorf("%s stamped shard %d, want -1", ev.Type, ev.Shard)
			}
		case "unit_start":
			starts++
			if ev.Shard < 0 || ev.Shard >= 4 {
				t.Errorf("unit_start shard %d out of pool range", ev.Shard)
			}
			if ev.Group == "" || ev.Unit == "" {
				t.Errorf("unit_start missing group/unit: %+v", ev)
			}
		case "unit_finish":
			finishes++
			if ev.DurNS <= 0 {
				t.Errorf("unit_finish with non-positive duration: %+v", ev)
			}
		case "worker_stall":
			t.Errorf("stall watchdog fired with a 1h threshold: %+v", ev)
		}
	}
	if counts["campaign_start"] != 1 || counts["campaign_finish"] != 1 {
		t.Errorf("campaign lifecycle events: %v", counts)
	}
	if starts == 0 || starts != finishes {
		t.Errorf("unit_start=%d unit_finish=%d, want equal and non-zero", starts, finishes)
	}
	if counts["bug_found"] < rep.Found {
		t.Errorf("bug_found events = %d, report found %d", counts["bug_found"], rep.Found)
	}
	if counts["budget_exhausted"] == 0 {
		t.Error("no budget_exhausted event despite a missed bug (issue 53252 exhausts its budget)")
	}
}

// TestCampaignMetricsMerged: shard-local collectors fold into the
// run-wide one — after the run the global collector holds the campaign's
// mutant count and core stage timings.
func TestCampaignMetricsMerged(t *testing.T) {
	sink := &telemetry.Sink{Metrics: telemetry.NewCollector(), Shard: -1}
	rep := runTelemetered(t, 4, sink, nil)

	mutants := sink.Metrics.Counter("mutants").Value()
	if want := int64(rep.Agg.Total().Iterations); mutants != want {
		t.Errorf("merged mutants counter = %d, agg says %d", mutants, want)
	}
	totals := sink.Metrics.StageTotals()
	for _, stage := range []string{"parse", "mutate", "opt", "tv"} {
		if totals[stage] <= 0 {
			t.Errorf("stage %q has no recorded time; totals = %v", stage, totals)
		}
	}
}

// TestWorkerID: outside a pool worker the id is -1.
func TestWorkerID(t *testing.T) {
	if id := WorkerID(context.Background()); id != -1 {
		t.Errorf("WorkerID outside pool = %d, want -1", id)
	}
}
