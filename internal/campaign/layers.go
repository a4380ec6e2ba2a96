package campaign

// Layer is one layer of the campaign's TV cascade. A layer may only skip
// work, never change a result: with it off, tables, triage bundles and
// every verdict are byte-identical (docs/PERFORMANCE.md).
type Layer struct {
	Name  string // short name, e.g. "cache"
	Flag  string // fuzz-campaign's off switch, e.g. "no-tv-cache"
	Usage string
	// Off switches the layer off in a campaign configuration.
	Off func(*BugConfig)
	// Counters is the prefix of the counters only this layer increments:
	// all zero while it is off (docs/OBSERVABILITY.md).
	Counters string
}

// Layers lists the TV cascade's layers in cascade order. fuzz-campaign
// registers one -no-* flag per entry, and the invariance harness in
// layers_test.go switches each off in turn, so adding or deleting a
// layer is one entry here.
var Layers = []Layer{
	{
		Name: "cache", Flag: "no-tv-cache",
		Usage:    "disable the per-unit verdict cache, which replays a repeated encoded query's solve-stage result (A/B comparison runs)",
		Off:      func(c *BugConfig) { c.NoTVCache = true },
		Counters: "tv.cache.",
	},
}
