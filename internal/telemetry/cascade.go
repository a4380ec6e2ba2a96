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
// only encoding returns. Each rung sees what the rungs before it left:
//
//	static:     proved + refuted-to-sat + bailout = encoded
//	concrete:   agreed + diverged + bailout = screened = encoded - static proved
//	shared-src: probes (hit + miss) = screened - diverged, with concrete on;
//	            proved <= probes
//	cache:      hit + miss = encoded - static proved - srcenc proved
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
	screened := c["tv.concrete.screened"]
	probes := c["tv.srcenc.hit"] + c["tv.srcenc.miss"]

	if on("static") {
		check("static outcomes vs encoded queries",
			staticProved+c["tv.static.refuted-to-sat"]+c["tv.static.bailout"], encoded)
	}
	if on("concrete") {
		check("concrete outcomes vs screened queries",
			c["tv.concrete.agreed"]+c["tv.concrete.diverged"]+c["tv.concrete.bailout"], screened)
		check("screened queries vs encoded queries the static rung left", screened, encoded-staticProved)
	}
	if on("concrete") && on("shared-src") {
		// Diverged queries route straight to the monolithic solve.
		check("srcenc probes vs non-diverged screened queries", probes, screened-c["tv.concrete.diverged"])
	}
	if c["tv.srcenc.proved"] > probes {
		errs = append(errs, fmt.Errorf("srcenc proved %d exceeds probes %d", c["tv.srcenc.proved"], probes))
	}
	if on("cache") {
		check("cache hit+miss vs solve-stage queries",
			c["tv.cache.hit"]+c["tv.cache.miss"], encoded-staticProved-c["tv.srcenc.proved"])
	}
	return errors.Join(errs...)
}
