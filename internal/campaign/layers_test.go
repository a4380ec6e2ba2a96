package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/spans"
	"repro/internal/triage"
)

// layerRun is one campaign of the invariance harness and what it left in
// its write-only sinks.
type layerRun struct {
	name     string
	off      map[string]bool // Layer.Name -> switched off
	rep      *BugReport
	counters map[string]int64
	spans    string
	tree     map[string]string
	bundles  int
}

// harnessConfig is the testIssues campaign at the campaign commands'
// defaults: every layer on.
func harnessConfig(workers int) BugConfig {
	return BugConfig{
		Budget:   120,
		TVBudget: 4000,
		Seed:     7,
		Passes:   "O2",
		Workers:  workers,
		Only:     testIssues,
		Stderr:   io.Discard,
	}
}

// repeatConfig is a small campaign that repeats a solve-stage query, so
// the verdict cache hits there whatever the harness's seven-bug campaign
// happens to repeat. Bug 52884's tagged seed smax_offset is
// `smax(add nsw i8 50, %x, -124)`, which instcombine folds to the add:
// the nsw range puts the sum above -124, which the rewriter does not see
// (the query does not fold), so the unit's preprocess gate solves it into
// the cache. At seed 7 the unit's
// tenth mutant only adds `nofree` to the function, which leaves the
// encoded query as it is, and replays the gate's solve; its ninth replays
// the third's. So two of the unit's mutants hit, four queries miss.
func repeatConfig(workers int) BugConfig {
	cfg := harnessConfig(workers)
	cfg.Budget = 20
	cfg.Only = []int{52884}
	return cfg
}

// runLayers runs cfg with the given layers off and every write-only sink
// attached: a metrics collector, a triage sink and a deterministic spans
// store.
func runLayers(name string, cfg BugConfig, off []Layer) (layerRun, error) {
	r := layerRun{name: fmt.Sprintf("%s/w%d", name, cfg.Workers), off: map[string]bool{}}
	for _, l := range off {
		l.Off(&cfg)
		r.off[l.Name] = true
	}
	cfg.Telemetry = &telemetry.Sink{Metrics: telemetry.NewCollector(), Shard: -1}
	cfg.Triage = triage.NewSink()
	store := spans.NewStore(true)
	cfg.Spans = store
	var err error
	if r.rep, err = RunBugs(context.Background(), cfg); err != nil {
		return r, fmt.Errorf("%s: RunBugs: %w", r.name, err)
	}
	r.counters = cfg.Telemetry.Metrics.Snapshot().Counters

	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		return r, fmt.Errorf("%s: spans write: %w", r.name, err)
	}
	if _, err := spans.Read(bytes.NewReader(buf.Bytes())); err != nil {
		return r, fmt.Errorf("%s: recorded spans file invalid: %w", r.name, err)
	}
	r.spans = buf.String()

	dir, err := os.MkdirTemp("", "layer-harness-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	entries, err := cfg.Triage.Flush(dir)
	if err != nil {
		return r, fmt.Errorf("%s: triage flush: %w", r.name, err)
	}
	r.bundles = len(entries)
	r.tree, err = readTree(dir)
	return r, err
}

// layerHarness holds the harness's campaigns: a sink-free reference at
// workers 1, then (workers 1, workers 8) pairs — the default stack first,
// then each layer of Layers off — and last all layers off at workers 8.
// Beside them, repeat is the repeatConfig campaign at workers 1 and 8.
type layerHarness struct {
	ref    *BugReport
	runs   []layerRun
	repeat [2]layerRun
}

// harnessRuns runs the harness's campaigns once per test binary. The
// tests below each check one contract on the same runs, so a layer added
// to Layers is switched off, alone and with the rest, under all of them.
var harnessRuns = sync.OnceValues(func() (*layerHarness, error) {
	type config struct {
		name    string
		workers int
		off     []Layer
	}
	configs := []config{{"default", 1, nil}, {"default", 8, nil}}
	for _, l := range Layers {
		configs = append(configs, config{l.Flag, 1, []Layer{l}}, config{l.Flag, 8, []Layer{l}})
	}
	configs = append(configs, config{"all-off", 8, Layers})

	// The campaigns are independent, so they run concurrently, as many
	// at a time as GOMAXPROCS.
	h := &layerHarness{runs: make([]layerRun, len(configs))}
	errs := make([]error, len(configs)+3)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	launch := func(i int, run func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = run()
		}()
	}
	launch(len(configs), func() (err error) {
		h.ref, err = RunBugs(context.Background(), harnessConfig(1))
		return err
	})
	for i, w := range []int{1, 8} {
		launch(len(configs)+1+i, func() (err error) {
			h.repeat[i], err = runLayers("repeat", repeatConfig(w), nil)
			return err
		})
	}
	for i, c := range configs {
		launch(i, func() (err error) {
			h.runs[i], err = runLayers(c.name, harnessConfig(c.workers), c.off)
			return err
		})
	}
	wg.Wait()
	return h, errors.Join(errs...)
})

// layerRuns returns the harness's campaigns, failing t if any of them
// failed.
func layerRuns(t *testing.T) *layerHarness {
	t.Helper()
	h, err := harnessRuns()
	if err != nil {
		t.Fatalf("invariance harness: %v", err)
	}
	return h
}

// def is the default stack at workers 1.
func (h *layerHarness) def() layerRun { return h.runs[0] }

// twins lists each configuration run at both worker counts as its
// (workers 1, workers 8) pair.
func (h *layerHarness) twins() [][2]layerRun {
	var p [][2]layerRun
	for i := 1; i < len(h.runs)-1; i += 2 {
		p = append(p, [2]layerRun{h.runs[i-1], h.runs[i]})
	}
	return p
}

// checkTables requires each run's result table to equal the reference's.
func checkTables(t *testing.T, ref *BugReport, runs []layerRun) {
	t.Helper()
	table := ref.Table()
	for _, r := range runs {
		if got := r.rep.Table(); got != table {
			t.Errorf("%s: result table differs from the reference:\n--- reference ---\n%s--- %s ---\n%s",
				r.name, table, r.name, got)
		}
	}
}

// checkSilent requires every counter under prefix to be zero in r.
func checkSilent(t *testing.T, r layerRun, prefix string) {
	t.Helper()
	for k, v := range r.counters {
		if v != 0 && strings.HasPrefix(k, prefix) {
			t.Errorf("%s: %s = %d, want 0 while its layer is off", r.name, k, v)
		}
	}
}

// TestCampaignLayerInvariance is the invariance harness for every layer
// in Layers. Each layer may only skip work, so with it off — alone, or
// all together — at workers 1 and 8 the result table matches a run with
// no sinks. For one configuration the spans file and every counter are
// the same at workers 1 and 8. A layer's counters are silent while it is
// off and fire in some run where it is on. Some query folds during
// encoding in every run, and as many as in the default run, since the
// fold precedes every layer. The tests after this one check the
// per-layer contracts on the same runs.
func TestCampaignLayerInvariance(t *testing.T) {
	h := layerRuns(t)
	checkTables(t, h.ref, h.runs)
	for _, p := range h.twins() {
		w1, w8 := p[0], p[1]
		if !maps.Equal(w1.counters, w8.counters) {
			t.Errorf("%s: counters differ from workers 1:\n%s", w8.name, counterDiff(w1.counters, w8.counters))
		}
		if w1.spans != w8.spans {
			t.Errorf("%s: deterministic spans file differs from workers 1:\n--- w1 ---\n%.2000s\n--- w8 ---\n%.2000s",
				w8.name, w1.spans, w8.spans)
		}
	}
	active := map[string]bool{}
	for _, r := range h.runs {
		if got, want := r.counters["tv.static.proved"], h.def().counters["tv.static.proved"]; got <= 0 || got != want {
			t.Errorf("%s: tv.static.proved = %d, want the default run's %d, positive", r.name, got, want)
		}
		for _, l := range Layers {
			if r.off[l.Name] {
				checkSilent(t, r, l.Counters)
				continue
			}
			for k, v := range r.counters {
				if v != 0 && strings.HasPrefix(k, l.Counters) {
					active[l.Name] = true
				}
			}
		}
	}
	for _, l := range Layers {
		if !active[l.Name] {
			t.Errorf("layer %s never incremented a %s* counter while on; its checks are vacuous", l.Name, l.Counters)
		}
	}
}

// TestBugCampaignDeterminism is the engine's core guarantee: the same
// campaign run serially and with 8 workers produces identical found/
// missed sets and identical per-bug mutant counts — scheduling only ever
// changes wall-clock time.
func TestBugCampaignDeterminism(t *testing.T) {
	h := layerRuns(t)
	serial, parallel := h.runs[0].rep, h.runs[1].rep
	if len(serial.Rows) != len(testIssues) || len(parallel.Rows) != len(testIssues) {
		t.Fatalf("row counts: serial %d, parallel %d, want %d",
			len(serial.Rows), len(parallel.Rows), len(testIssues))
	}
	for i := range serial.Rows {
		s, p := serial.Rows[i], parallel.Rows[i]
		if s.Info.Issue != p.Info.Issue || s.Found != p.Found ||
			s.Iters != p.Iters || s.Kind != p.Kind || s.SeedT != p.SeedT {
			t.Errorf("issue %d diverged across worker counts:\n  serial:   %+v\n  parallel: %+v",
				s.Info.Issue, s, p)
		}
	}
	checkTables(t, serial, h.runs[1:2])

	// The small budget must still find something, and leave the clamp bug
	// missed, or the identities of the harness are vacuous.
	if serial.Found == 0 {
		t.Error("small campaign found nothing; test budget too small to be meaningful")
	}
	if serial.Rows[0].Info.Issue != 53252 || serial.Rows[0].Found {
		t.Errorf("expected issue 53252 to stay missed at budget 120 (it needs ~5000 mutants), got %+v", serial.Rows[0])
	}
}

// TestBugCampaignRepeatable: two runs of one configuration are identical
// (the engine introduces no hidden per-run state). The default workers-1
// run repeats the reference's configuration, with write-only sinks added.
func TestBugCampaignRepeatable(t *testing.T) {
	h := layerRuns(t)
	checkTables(t, h.ref, h.runs[:1])
}

// TestCampaignTVCacheHitsDeterministic: on a campaign that repeats a
// solve-stage query the cache both hits and misses, with the same counts
// at workers 1 and 8; in the harness its counters are the same at
// workers 1 and 8 and silent while it is off.
func TestCampaignTVCacheHitsDeterministic(t *testing.T) {
	h := layerRuns(t)
	w1 := h.repeat[0]
	if w1.counters["tv.cache.hit"] <= 0 || w1.counters["tv.cache.miss"] <= 0 {
		t.Errorf("%s: tv.cache.hit = %d, tv.cache.miss = %d, want both positive",
			w1.name, w1.counters["tv.cache.hit"], w1.counters["tv.cache.miss"])
	}
	for _, r := range h.runs {
		if r.off["cache"] {
			checkSilent(t, r, "tv.cache.")
		}
	}
	for _, p := range append(h.twins(), h.repeat) {
		for _, k := range []string{"tv.cache.hit", "tv.cache.miss"} {
			if p[0].counters[k] != p[1].counters[k] {
				t.Errorf("%s: %s = %d, workers 1 had %d", p[1].name, k, p[1].counters[k], p[0].counters[k])
			}
		}
	}
}

// TestCampaignCacheHitsReplayRecordedSolves: in the repeatConfig
// campaign every verdict-cache hit replays a solve some sink recorded.
// Within each unit (the cache is per unit), a query span that hits must
// come after a span that missed on the same query, the preprocess gate's
// included, and the spans' hits and misses must add up to the
// tv.cache.hit and tv.cache.miss counters. The smax_offset unit replays
// the query its gate solved, so it must hit at least once.
func TestCampaignCacheHitsReplayRecordedSolves(t *testing.T) {
	h := layerRuns(t)
	for _, r := range h.repeat {
		f, err := spans.Read(strings.NewReader(r.spans))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var hits, misses, seedHits int64
		for _, u := range f.Units {
			solved := map[string]bool{}
			for _, s := range u.Spans {
				switch {
				case s.Name != spans.NameQuery:
				case s.Cache == spans.CacheMiss:
					misses++
					solved[s.FP] = true
				case s.Cache == spans.CacheHit:
					hits++
					if u.Unit == "smax_offset" {
						seedHits++
					}
					if !solved[s.FP] {
						t.Errorf("%s: unit %s: span %d hits query %s before any recorded miss on it", r.name, u.Unit, s.ID, s.FP)
					}
				}
			}
		}
		if hits != r.counters["tv.cache.hit"] || misses != r.counters["tv.cache.miss"] {
			t.Errorf("%s: spans record %d hits and %d misses, counters %d and %d",
				r.name, hits, misses, r.counters["tv.cache.hit"], r.counters["tv.cache.miss"])
		}
		if seedHits == 0 {
			t.Errorf("%s: no cache hit in the smax_offset unit; the check is vacuous", r.name)
		}
	}
}

// TestCampaignCascadeCounters: in every run, each cascade rung that is on
// takes work and its outcomes partition the queries it saw, the
// partitions chain from rung to rung, and a run with one layer off leaves
// the counters of every layer before it as the default run has them.
func TestCampaignCascadeCounters(t *testing.T) {
	h := layerRuns(t)
	for _, r := range h.runs {
		checkPartitions(t, r)
		checkUpstream(t, r, h.def())
	}
	for _, r := range h.repeat {
		checkPartitions(t, r)
	}
}

// TestCampaignTriageInvariance: triage is a write-only sink. Every
// harness run carries it, so the table identity of the harness covers
// it; here the flushed tree is the same in every run, and each run
// writes one bundle per found bug.
func TestCampaignTriageInvariance(t *testing.T) {
	h := layerRuns(t)
	def := h.def()
	if def.rep.Found == 0 || len(def.tree) == 0 {
		t.Fatalf("found %d bugs, %d triage files; the checks would be vacuous", def.rep.Found, len(def.tree))
	}
	for _, r := range h.runs {
		checkTree(t, r, def)
		if r.bundles != r.rep.Found {
			t.Errorf("%s: %d bundles for %d found bugs, want exactly one per signature", r.name, r.bundles, r.rep.Found)
		}
	}
}

// checkTree requires r's flushed triage tree to equal the default run's.
func checkTree(t *testing.T, r, def layerRun) {
	t.Helper()
	if len(r.tree) != len(def.tree) {
		t.Errorf("%s: triage tree has %d files, default run %d", r.name, len(r.tree), len(def.tree))
	}
	for rel, want := range def.tree {
		if got, ok := r.tree[rel]; !ok {
			t.Errorf("%s: triage tree is missing %s", r.name, rel)
		} else if got != want {
			t.Errorf("%s: triage file %s differs from the default run's:\n--- default ---\n%s--- %s ---\n%s",
				r.name, rel, want, r.name, got)
		}
	}
}

// checkPartitions checks the cascade's accounting on every run: the
// partition identities of telemetry.CheckCascade hold for the layers that
// are on — among them, the cache's hits and misses count the solve-stage
// queries.
func checkPartitions(t *testing.T, r layerRun) {
	t.Helper()
	if err := telemetry.CheckCascade(r.counters, r.off); err != nil {
		t.Errorf("%s: %v", r.name, err)
	}
}

// checkUpstream requires a run with one layer off to leave the counters of
// every layer before it in the cascade exactly as the default run has
// them.
func checkUpstream(t *testing.T, r, def layerRun) {
	t.Helper()
	if len(r.off) != 1 {
		return
	}
	for _, l := range Layers {
		if r.off[l.Name] {
			return
		}
		for k, v := range def.counters {
			if strings.HasPrefix(k, l.Counters) && r.counters[k] != v {
				t.Errorf("%s: upstream counter %s = %d, default run %d", r.name, k, r.counters[k], v)
			}
		}
	}
}

// counterDiff lists the counters on which a and b disagree.
func counterDiff(a, b map[string]int64) string {
	var diffs []string
	for k := range a {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("  %s: %d vs %d\n", k, a[k], b[k]))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("  %s: missing vs %d\n", k, b[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "")
}
