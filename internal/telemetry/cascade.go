package telemetry

import (
	"errors"
	"fmt"
	"strings"
)

// LayersOffLabel is the snapshot label under which fuzz-campaign records
// the TV cascade layers it ran with switched off: their names
// (campaign.Layers), comma-separated, in cascade order; empty when every
// layer was on.
const LayersOffLabel = "layers_off"

// ParseLayersOff reads a LayersOffLabel value back into a set.
func ParseLayersOff(label string) map[string]bool {
	off := map[string]bool{}
	for _, name := range strings.Split(label, ",") {
		if name != "" {
			off[name] = true
		}
	}
	return off
}

// CheckCascade checks the TV cascade's partition identities on a
// campaign's counters, for the layers not in off (docs/OBSERVABILITY.md).
// The encoded queries are the verdicts other than Unsupported, which
// only encoding returns. Each rung sees what the rungs before it left,
// and the cache also serves the preprocess gate's solve-stage queries
// (tv.gate.solves), which the verdict census leaves out:
//
//	static: proved + bailout = encoded
//	cache:  hit + miss = encoded - static proved + gate solves
//
// It returns every identity that fails, joined; nil when all hold.
func CheckCascade(c map[string]int64, off map[string]bool) error {
	var errs []error
	on := func(layer string) bool { return !off[layer] }
	check := func(what string, got, want int64) {
		if got != want {
			errs = append(errs, fmt.Errorf("%s: %d, want %d", what, got, want))
		}
	}
	encoded := c["verdict.valid"] + c["verdict.invalid"] + c["verdict.unknown"]
	staticProved := c["tv.static.proved"]

	if on("static") {
		check("static outcomes vs encoded queries",
			staticProved+c["tv.static.bailout"], encoded)
	}
	if on("cache") {
		check("cache hit+miss vs solve-stage queries",
			c["tv.cache.hit"]+c["tv.cache.miss"], encoded-staticProved+c["tv.gate.solves"])
	}
	return errors.Join(errs...)
}
