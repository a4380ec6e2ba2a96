package telemetry

import (
	"strings"
	"testing"
)

// cascadeCounters is a consistent default-campaign count: 20 encoded
// queries (and 3 Unsupported); 8 fold during encoding and 12 reach the
// solve stage, where the cache serves 2 of them.
func cascadeCounters() map[string]int64 {
	return map[string]int64{
		"verdict.valid": 17, "verdict.invalid": 1, "verdict.unknown": 2, "verdict.unsupported": 3,
		"tv.static.proved": 8, "tv.cache.hit": 2, "tv.cache.miss": 10,
	}
}

func TestCheckCascade(t *testing.T) {
	if err := CheckCascade(cascadeCounters(), nil); err != nil {
		t.Fatalf("consistent counters: %v", err)
	}

	// The identity fails on each of its counters, and only while the
	// cache is on.
	for _, counter := range []string{"tv.cache.miss", "tv.static.proved", "verdict.valid"} {
		counters := cascadeCounters()
		counters[counter]++
		err := CheckCascade(counters, nil)
		if err == nil || !strings.Contains(err.Error(), "cache hit+miss") {
			t.Errorf("%s off by one: error %v, want the cache identity", counter, err)
		}
		if err := CheckCascade(counters, ParseLayersOff("cache")); err != nil {
			t.Errorf("%s off by one with the cache off: %v", counter, err)
		}
	}

	// With no query folded, every encoded query reaches the solve stage.
	none := cascadeCounters()
	delete(none, "tv.static.proved")
	none["tv.cache.miss"] = 18
	if err := CheckCascade(none, nil); err != nil {
		t.Errorf("nothing folded: %v", err)
	}

	// The preprocess gate's solve-stage queries use the cache too but are
	// not in the verdict census.
	gate := cascadeCounters()
	gate["tv.gate.solves"] = 3
	gate["tv.cache.hit"]++
	gate["tv.cache.miss"] += 2
	if err := CheckCascade(gate, nil); err != nil {
		t.Errorf("with gate solves: %v", err)
	}
}

func TestParseLayersOff(t *testing.T) {
	if got := ParseLayersOff(""); len(got) != 0 {
		t.Errorf("empty label: %v", got)
	}
	got := ParseLayersOff("cache,incremental")
	if len(got) != 2 || !got["cache"] || !got["incremental"] {
		t.Errorf("two layers: %v", got)
	}
}
