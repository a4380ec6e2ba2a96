package tv

// Cache memoizes refinement verdicts across mutants. Mutation-based
// fuzzing re-derives structurally identical (src, tgt) pairs constantly —
// mutants that differ only in value names, or whose optimization touched
// a different function of the module — so the same refinement query is
// solved over and over. The cache keys the full structural fingerprint of
// the pair (see Fingerprint) to the prior verdict.
//
// Only Valid and Unsupported verdicts are stored: both are safe to replay
// from the verdict alone. Invalid results carry a counterexample model
// and Unknown results sit on the solver's budget boundary; replaying
// either could perturb triage bundles and journals, so they always
// re-solve (docs/PERFORMANCE.md).
//
// A Cache is not safe for concurrent use. Like SrcEncodings, the campaign
// creates one per unit execution, which keeps hit/miss counts — not just
// verdicts — deterministic at any worker count.
type Cache struct {
	m map[Key]cachedVerdict

	hits, misses int64
}

// Key is a structural fingerprint of a (src, tgt, options) triple.
type Key [32]byte

type cachedVerdict struct {
	verdict Verdict
	reason  string
}

// NewCache returns an empty verdict cache.
func NewCache() *Cache {
	return &Cache{m: make(map[Key]cachedVerdict)}
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits, c.misses
}

// Len returns the number of cached verdicts.
func (c *Cache) Len() int {
	return len(c.m)
}

func (c *Cache) lookup(k Key) (Result, bool) {
	v, ok := c.m[k]
	if !ok {
		c.misses++
		return Result{}, false
	}
	c.hits++
	return Result{Verdict: v.verdict, Reason: v.reason, CacheHit: true}, true
}

func (c *Cache) store(k Key, r Result) {
	if r.Verdict != Valid && r.Verdict != Unsupported {
		return
	}
	c.m[k] = cachedVerdict{verdict: r.Verdict, reason: r.Reason}
}
