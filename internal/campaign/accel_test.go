package campaign

import (
	"context"
	"io"
	"testing"

	"repro/internal/telemetry"
)

// runAccel runs the small campaign with explicit acceleration knobs and
// an optional metrics sink.
func runAccel(t *testing.T, workers int, mutate func(*BugConfig), sink *telemetry.Sink) *BugReport {
	t.Helper()
	cfg := BugConfig{
		Budget:    120,
		TVBudget:  4000,
		Seed:      7,
		Passes:    "O2",
		Workers:   workers,
		Only:      testIssues,
		Stderr:    io.Discard,
		Telemetry: sink,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return mustRunBugs(t, context.Background(), cfg)
}

// TestCampaignTVAccelInvariance is the acceleration stack's acceptance
// criterion: the campaign result table is byte-identical with every
// combination of the TV acceleration knobs, at workers 1 and 8. The
// accelerated paths short-circuit only Valid verdicts and fall back to
// the canonical monolithic query for everything else, so the found/missed
// census and mutant counts — everything the table renders — cannot move.
func TestCampaignTVAccelInvariance(t *testing.T) {
	baseline := runSmall(t, 1).Table()
	variants := []struct {
		name   string
		mutate func(*BugConfig)
	}{
		{"no-cache", func(c *BugConfig) { c.NoTVCache = true }},
		{"no-incremental", func(c *BugConfig) { c.NoIncremental = true }},
		{"no-cache-no-incremental", func(c *BugConfig) { c.NoTVCache = true; c.NoIncremental = true }},
	}
	for _, workers := range []int{1, 8} {
		for _, v := range variants {
			if got := runAccel(t, workers, v.mutate, nil).Table(); got != baseline {
				t.Errorf("workers=%d %s: acceleration knobs changed the result table:\n--- baseline (accel on) ---\n%s--- %s ---\n%s",
					workers, v.name, baseline, v.name, got)
			}
		}
	}
}

// TestCampaignTVCacheHitsDeterministic: with the default configuration
// (per-unit verdict cache on) the campaign takes cache hits, and the hit
// count is a pure function of the seed — two identical runs agree exactly.
func TestCampaignTVCacheHitsDeterministic(t *testing.T) {
	hits := func() (int64, int64) {
		sink := &telemetry.Sink{Metrics: telemetry.NewCollector(), Shard: -1}
		runAccel(t, 4, nil, sink)
		return sink.Metrics.Counter("tv.cache.hit").Value(),
			sink.Metrics.Counter("tv.cache.miss").Value()
	}
	h1, m1 := hits()
	h2, m2 := hits()
	t.Logf("tv.cache.hit=%d tv.cache.miss=%d", h1, m1)
	if h1 == 0 {
		t.Error("default campaign configuration took no TV cache hits")
	}
	if m1 == 0 {
		t.Error("no cache misses recorded; counter wiring is broken")
	}
	if h1 != h2 || m1 != m2 {
		t.Errorf("cache traffic not deterministic: run1 hit=%d miss=%d, run2 hit=%d miss=%d", h1, m1, h2, m2)
	}

	// Disabling the cache must zero the traffic.
	sink := &telemetry.Sink{Metrics: telemetry.NewCollector(), Shard: -1}
	runAccel(t, 4, func(c *BugConfig) { c.NoTVCache = true }, sink)
	if h := sink.Metrics.Counter("tv.cache.hit").Value(); h != 0 {
		t.Errorf("cache disabled but tv.cache.hit = %d", h)
	}
}
