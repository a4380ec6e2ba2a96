package tv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/smt"
)

// Cache memoizes the solve stage's results across the queries of one
// campaign unit. Mutation-based fuzzing re-derives the same refinement
// formula constantly: mutants that differ only in value names, and
// mutants whose mutation folds away during encoding, reach the solver as
// the same query. The cache sits after the fold check, just before the
// monolithic solve, and keys a digest of the encoded query (see
// solveKey).
//
// Everything that stage returns is a function of the key: the CNF is
// built by a walk over the query's DAG that never reads a variable name.
// A stored result is exactly what a re-solve would return, budget
// Unknowns included. Only Invalid results are never stored: their
// counterexample reads the names of the pair's parameters.
//
// A Cache is not safe for concurrent use. The campaign creates one per
// unit execution, which keeps hit/miss counts — not just verdicts —
// deterministic at any worker count.
type Cache struct {
	m map[Key]cachedResult

	hits, misses int64
}

// Key is the solve stage's 32-byte digest of a query (see solveKey): the
// verdict cache's key and, in hex, Result.FP.
type Key [32]byte

// String returns the key in hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

type cachedResult struct {
	verdict Verdict
	reason  string
}

// NewCache returns an empty verdict cache.
func NewCache() *Cache {
	return &Cache{m: make(map[Key]cachedResult)}
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits, c.misses
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	return len(c.m)
}

// solveKey digests everything the solve stage reads: the query and the
// conflict budget.
func solveKey(query *smt.Term, opts Options) Key {
	d := smt.Digest(query)
	buf := append([]byte("alive-mutate-tvsolve/1"), d[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(opts.ConflictBudget))
	return Key(sha256.Sum256(buf))
}

// lookup replays the stored result for k, if any, as a cache hit: the
// verdict and reason only, with the solver statistics zero.
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
	if r.Verdict == Invalid {
		return
	}
	c.m[k] = cachedResult{verdict: r.Verdict, reason: r.Reason}
}
