package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func compareSnap(tvNS int64, counters map[string]int64) *telemetry.Snapshot {
	return &telemetry.Snapshot{
		Schema:   telemetry.SchemaV1,
		Counters: counters,
		Histograms: map[string]telemetry.HistSnapshot{
			"stage.tv":   {Count: 3, TotalNS: tvNS},
			"solver.ns":  {Count: 3, TotalNS: tvNS},
			"stage.idle": {},
		},
	}
}

// TestCompareTable: -compare prints stage times for every stage that ran
// (never other histograms), then exactly the counters that differ, then
// a count of the identical ones.
func TestCompareTable(t *testing.T) {
	base := map[string]int64{"mutants": 995, "sat.conflicts": 53037, "tv.queries": 772}
	same := compareSnap(int64(2*time.Second), base)
	faster := compareSnap(int64(1500*time.Millisecond), base)

	got := compareTable([]string{"parent", "change"}, []*telemetry.Snapshot{same, faster})
	want := "" +
		"stage                    parent         change\n" +
		"tv                           2s           1.5s\n" +
		"mutants                     995            995\n" +
		"3 counters identical\n"
	if got != want {
		t.Fatalf("identical counters:\n%s\nwant:\n%s", got, want)
	}

	moved := compareSnap(int64(time.Second), map[string]int64{"mutants": 995, "sat.conflicts": 60000, "tv.queries": 772, "tv.portfolio.rescued": 1})
	got = compareTable([]string{"parent", "change"}, []*telemetry.Snapshot{same, moved})
	for _, line := range []string{
		"counter                      parent         change\n",
		"sat.conflicts                 53037          60000\n",
		"tv.portfolio.rescued              0              1\n",
		"2 counters identical\n",
	} {
		if !strings.Contains(got, line) {
			t.Errorf("differing counters: output lacks %q:\n%s", line, got)
		}
	}
	if strings.Contains(got, "\ntv.queries") || strings.Contains(got, "solver") || strings.Contains(got, "idle") {
		t.Errorf("output lists an identical counter or a non-stage histogram:\n%s", got)
	}
}

// TestCheckCampaignShapeCascade: -require-campaign checks the cascade's
// identities on a snapshot that names its switched-off layers, for the
// layers that were on, and leaves a snapshot without the label alone.
func TestCheckCampaignShapeCascade(t *testing.T) {
	snap := func(labels map[string]string) *telemetry.Snapshot {
		s := compareSnap(int64(time.Second), map[string]int64{
			"mutants": 10, "verdict.valid": 5,
			"tv.static.proved": 2, "tv.static.bailout": 3,
			"tv.cache.miss": 2, // one short of the 3 solve-stage queries
		})
		s.Labels = labels
		for _, st := range []string{"stage.mutate", "stage.opt"} {
			s.Histograms[st] = telemetry.HistSnapshot{Count: 1, TotalNS: 1}
		}
		return s
	}
	if err := checkCampaignShape(snap(nil)); err != nil {
		t.Errorf("no layers_off label: %v", err)
	}
	err := checkCampaignShape(snap(map[string]string{telemetry.LayersOffLabel: "portfolio"}))
	if err == nil || !strings.Contains(err.Error(), "cache hit+miss") {
		t.Errorf("cache on, one miss short: error %v, want the cache identity", err)
	}
	if err := checkCampaignShape(snap(map[string]string{telemetry.LayersOffLabel: "cache,portfolio"})); err != nil {
		t.Errorf("cache off: %v", err)
	}
}
