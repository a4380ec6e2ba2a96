package telemetry

import (
	"maps"
	"strings"
	"testing"
)

// cascadeCounters is a consistent default-campaign count: 20 encoded
// queries (and 3 Unsupported); static proves 8 and leaves 12 to the
// solve stage, where the cache serves 2 of them.
func cascadeCounters() map[string]int64 {
	return map[string]int64{
		"verdict.valid": 17, "verdict.invalid": 1, "verdict.unknown": 2, "verdict.unsupported": 3,
		"tv.static.proved": 8, "tv.static.bailout": 12,
		"tv.cache.hit": 2, "tv.cache.miss": 10,
	}
}

func TestCheckCascade(t *testing.T) {
	if err := CheckCascade(cascadeCounters(), nil); err != nil {
		t.Fatalf("consistent counters: %v", err)
	}

	// Each identity fails on its own counter, and only for a layer that
	// is on.
	for _, c := range []struct {
		counter, layer, want string
	}{
		{"tv.static.bailout", "static", "static outcomes"},
		{"tv.cache.miss", "cache", "cache hit+miss"},
	} {
		counters := cascadeCounters()
		counters[c.counter]++
		err := CheckCascade(counters, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s off by one: error %v, want one naming %q", c.counter, err, c.want)
		}
		if err := CheckCascade(counters, map[string]bool{c.layer: true}); err != nil && strings.Contains(err.Error(), c.want) {
			t.Errorf("%s off by one with layer %s off: %v", c.counter, c.layer, err)
		}
	}

	// With the static rung off, nothing is statically proved and every
	// encoded query reaches the solve stage.
	off := cascadeCounters()
	maps.DeleteFunc(off, func(k string, _ int64) bool { return strings.HasPrefix(k, "tv.static.") })
	off["tv.cache.miss"] = 18
	if err := CheckCascade(off, ParseLayersOff("static")); err != nil {
		t.Errorf("static off: %v", err)
	}
}

func TestParseLayersOff(t *testing.T) {
	if got := ParseLayersOff(""); len(got) != 0 {
		t.Errorf("empty label: %v", got)
	}
	got := ParseLayersOff("static,cache")
	if len(got) != 2 || !got["static"] || !got["cache"] {
		t.Errorf("two layers: %v", got)
	}
}
