// The live status read model: the campaign coordinator — which already
// owns the unit table, the group chains, and the budget accounting on a
// single goroutine — publishes an immutable StatusSnapshot after every
// scheduling transition, and HTTP readers load it with one atomic pointer
// read. Publication is O(units) on the coordinator (microseconds against
// a fuzzing loop that spends milliseconds per mutant); reads are
// lock-free and never touch coordinator state, so a dashboard polling
// /api/status can never perturb scheduling or results.

package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// StatusSchemaV1 identifies the /api/status document format.
const StatusSchemaV1 = "alive-mutate-status/v1"

// Unit states as they appear in UnitStatus.State.
const (
	UnitQueued  = "queued"
	UnitRunning = "running"
	UnitDone    = "done"
	UnitSkipped = "skipped"
)

// UnitStatus is one row of the live unit table.
type UnitStatus struct {
	Group string `json:"group"`
	Name  string `json:"name"`
	Seed  uint64 `json:"seed"`
	// State is the unit's scheduling state: queued, running, done, or
	// skipped (group finished early, or campaign cancelled first).
	State string `json:"state"`
	// Restored marks a done unit that was replayed from a checkpoint
	// instead of executed by this process.
	Restored bool `json:"restored,omitempty"`
	// DurNS is the unit's execution time (done units only).
	DurNS int64 `json:"dur_ns,omitempty"`
	// Err records the unit's error, if it finished with one.
	Err string `json:"err,omitempty"`
}

// GroupStatus is one row of the live group (per-bug) table.
type GroupStatus struct {
	Name       string `json:"name"`
	UnitsTotal int    `json:"units_total"`
	UnitsDone  int    `json:"units_done"`
	Running    bool   `json:"running,omitempty"`
	Done       bool   `json:"done,omitempty"`
	// MutantsSpent / MutantsBudget are the group's budget accounting,
	// threaded out of the chained unit state by the campaign's
	// GroupProgress hook. Zero when the campaign type has no notion of a
	// per-group mutant budget.
	MutantsSpent  int64 `json:"mutants_spent"`
	MutantsBudget int64 `json:"mutants_budget"`
	// Found reports the group's first finding; Detail carries the
	// campaign-specific evidence summary (kind, iteration, seed test).
	Found  bool   `json:"found,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// GroupProgress is the campaign-specific slice of a group's status,
// extracted from the group's chained state by the engine's GroupProgress
// hook (internal/campaign Options.GroupProgress).
type GroupProgress struct {
	Spent  int64
	Total  int64
	Found  bool
	Detail string
}

// StageStatus is one stage-timer row served alongside the snapshot (the
// dashboard's stage breakdown); filled from the Collector at read time.
type StageStatus struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// StatusSnapshot is the full /api/status document. The structural fields
// (units, groups, counts) are stamped by the publisher's owner at every
// scheduling transition; ElapsedNS, RatePerSec, and ETANS are recomputed
// at read time so they stay live between transitions.
type StatusSnapshot struct {
	Schema    string `json:"schema"`
	ElapsedNS int64  `json:"elapsed_ns"`

	UnitsTotal    int `json:"units_total"`
	UnitsQueued   int `json:"units_queued"`
	UnitsRunning  int `json:"units_running"`
	UnitsDone     int `json:"units_done"`
	UnitsSkipped  int `json:"units_skipped"`
	UnitsRestored int `json:"units_restored"`

	GroupsTotal int `json:"groups_total"`
	GroupsDone  int `json:"groups_done"`
	GroupsFound int `json:"groups_found"`

	// Mutants is the run-wide mutant count at publication time (the
	// throughput numerator; includes counters merged from a resumed
	// checkpoint). MutantsBudget sums every group's budget;
	// MutantsRemaining sums the unspent budget of unfinished groups —
	// the ETA numerator.
	Mutants          int64 `json:"mutants"`
	MutantsBudget    int64 `json:"mutants_budget"`
	MutantsRemaining int64 `json:"mutants_remaining"`

	// RatePerSec is the overall campaign throughput (Mutants over
	// elapsed). ETANS extrapolates MutantsRemaining at that rate; -1
	// when unknown (no rate yet). Both are stamped at read time and use
	// the same arithmetic as the -progress stderr ticker, so the two
	// surfaces can never disagree.
	RatePerSec float64 `json:"rate_per_sec"`
	ETANS      int64   `json:"eta_ns"`

	// TVCacheHits/TVCacheMisses/SATConflicts surface the TV acceleration
	// counters (docs/PERFORMANCE.md) live: stamped by the HTTP layer from
	// the Collector at read time, like Stages, so the dashboard tiles and
	// the -progress ticker read the same source. The cache's lookup is
	// the first step of the solve stage, so hits and misses together
	// count the encoded queries that did not fold; a hit replays a
	// stored Valid or budget Unknown without solving.
	TVCacheHits   int64 `json:"tv_cache_hits,omitempty"`
	TVCacheMisses int64 `json:"tv_cache_misses,omitempty"`
	SATConflicts  int64 `json:"sat_conflicts,omitempty"`

	// TVStaticProved feeds the dashboard's cascade discharge-rate tile:
	// the share of encoded queries (it plus the cache's hits and misses)
	// that folded during encoding and so were Valid before the solve
	// stage. Stamped at read time like the counters above.
	TVStaticProved int64 `json:"tv_static_proved,omitempty"`

	Units  []UnitStatus  `json:"units"`
	Groups []GroupStatus `json:"groups"`
	// Stages is filled by the HTTP layer from the live Collector.
	Stages []StageStatus `json:"stages,omitempty"`
}

// StageRows renders the collector's "stage.*" histograms as status rows,
// sorted by total time descending (ties by name) — the dashboard's stage
// breakdown. Nil-safe: a nil collector yields no rows.
func (c *Collector) StageRows() []StageStatus {
	if c == nil {
		return nil
	}
	var rows []StageStatus
	c.mu.RLock()
	for name, h := range c.hists {
		if strings.HasPrefix(name, "stage.") && h.Count() > 0 {
			rows = append(rows, StageStatus{
				Name:    strings.TrimPrefix(name, "stage."),
				Count:   h.Count(),
				TotalNS: h.Sum(),
			})
		}
	}
	c.mu.RUnlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TotalNS != rows[j].TotalNS {
			return rows[i].TotalNS > rows[j].TotalNS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// StatusPublisher hands immutable snapshots from the single writer (the
// campaign coordinator) to any number of lock-free readers (HTTP
// handlers, the -progress ticker). All methods are nil-safe.
type StatusPublisher struct {
	start time.Time
	cur   atomic.Pointer[StatusSnapshot]
}

// NewStatusPublisher returns a publisher anchored at the current time;
// ElapsedNS and RatePerSec measure from this moment.
func NewStatusPublisher() *StatusPublisher {
	return &StatusPublisher{start: time.Now()}
}

// Publish replaces the current snapshot (nil-safe). The snapshot must not
// be mutated after publication: readers share it.
func (p *StatusPublisher) Publish(s *StatusSnapshot) {
	if p == nil || s == nil {
		return
	}
	s.Schema = StatusSchemaV1
	p.cur.Store(s)
}

// Status returns a copy of the current snapshot with ElapsedNS,
// RatePerSec, and ETANS stamped at read time. Before the first Publish it
// returns an empty (but schema-valid) snapshot, so early polls succeed.
// Nil-safe: a nil publisher returns nil.
func (p *StatusPublisher) Status() *StatusSnapshot {
	if p == nil {
		return nil
	}
	var s StatusSnapshot
	if cur := p.cur.Load(); cur != nil {
		s = *cur // shallow copy; slices stay shared and immutable
	}
	s.Schema = StatusSchemaV1
	s.ElapsedNS = int64(time.Since(p.start))
	s.RatePerSec, s.ETANS = rateAndETA(s.Mutants, s.MutantsRemaining, s.ElapsedNS)
	return &s
}

// rateAndETA is the one shared throughput computation: overall rate =
// mutants over elapsed, ETA = remaining budget at that rate (-1 when the
// rate is not yet established). The status API and the -progress ticker
// both call it, so they can never disagree.
func rateAndETA(mutants, remaining, elapsedNS int64) (rate float64, etaNS int64) {
	if elapsedNS <= 0 {
		return 0, -1
	}
	rate = float64(mutants) / (float64(elapsedNS) / 1e9)
	if rate <= 0 {
		return rate, -1
	}
	if remaining <= 0 {
		return rate, 0
	}
	return rate, int64(float64(remaining) / rate * 1e9)
}

// ValidateStatus parses data as a StatusSnapshot and checks every
// documented internal-consistency invariant — the checker behind
// `telemetry-check -status` and the dashboard-smoke CI job.
func ValidateStatus(data []byte) (*StatusSnapshot, error) {
	var s StatusSnapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("status: not a valid document: %w", err)
	}
	if s.Schema != StatusSchemaV1 {
		return nil, fmt.Errorf("status: schema %q, want %q", s.Schema, StatusSchemaV1)
	}
	if s.ElapsedNS < 0 {
		return nil, fmt.Errorf("status: negative elapsed_ns %d", s.ElapsedNS)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"units_total", s.UnitsTotal}, {"units_queued", s.UnitsQueued},
		{"units_running", s.UnitsRunning}, {"units_done", s.UnitsDone},
		{"units_skipped", s.UnitsSkipped}, {"units_restored", s.UnitsRestored},
		{"groups_total", s.GroupsTotal}, {"groups_done", s.GroupsDone},
		{"groups_found", s.GroupsFound},
	} {
		if c.v < 0 {
			return nil, fmt.Errorf("status: negative %s (%d)", c.name, c.v)
		}
	}
	if sum := s.UnitsQueued + s.UnitsRunning + s.UnitsDone + s.UnitsSkipped; sum != s.UnitsTotal {
		return nil, fmt.Errorf("status: unit states sum to %d, units_total is %d", sum, s.UnitsTotal)
	}
	if s.UnitsDone > s.UnitsTotal {
		return nil, fmt.Errorf("status: units_done %d > units_total %d", s.UnitsDone, s.UnitsTotal)
	}
	if s.UnitsRestored > s.UnitsDone {
		return nil, fmt.Errorf("status: units_restored %d > units_done %d", s.UnitsRestored, s.UnitsDone)
	}
	if s.GroupsDone > s.GroupsTotal {
		return nil, fmt.Errorf("status: groups_done %d > groups_total %d", s.GroupsDone, s.GroupsTotal)
	}
	if s.GroupsFound > s.GroupsTotal {
		return nil, fmt.Errorf("status: groups_found %d > groups_total %d", s.GroupsFound, s.GroupsTotal)
	}
	if len(s.Units) != 0 && len(s.Units) != s.UnitsTotal {
		return nil, fmt.Errorf("status: %d unit rows, units_total is %d", len(s.Units), s.UnitsTotal)
	}
	if len(s.Groups) != 0 && len(s.Groups) != s.GroupsTotal {
		return nil, fmt.Errorf("status: %d group rows, groups_total is %d", len(s.Groups), s.GroupsTotal)
	}
	states := map[string]int{}
	for i, u := range s.Units {
		switch u.State {
		case UnitQueued, UnitRunning, UnitDone, UnitSkipped:
			states[u.State]++
		default:
			return nil, fmt.Errorf("status: unit %d has unknown state %q", i, u.State)
		}
		if u.Restored && u.State != UnitDone {
			return nil, fmt.Errorf("status: unit %d restored but %s", i, u.State)
		}
	}
	if len(s.Units) != 0 {
		if states[UnitQueued] != s.UnitsQueued || states[UnitRunning] != s.UnitsRunning ||
			states[UnitDone] != s.UnitsDone || states[UnitSkipped] != s.UnitsSkipped {
			return nil, fmt.Errorf("status: unit rows count %v, summary says queued=%d running=%d done=%d skipped=%d",
				states, s.UnitsQueued, s.UnitsRunning, s.UnitsDone, s.UnitsSkipped)
		}
	}
	var unitSum, doneUnits, doneGroups, foundGroups int
	var budgetSum int64
	for _, g := range s.Groups {
		if g.UnitsDone > g.UnitsTotal {
			return nil, fmt.Errorf("status: group %q units_done %d > units_total %d", g.Name, g.UnitsDone, g.UnitsTotal)
		}
		if g.MutantsSpent < 0 || g.MutantsBudget < 0 {
			return nil, fmt.Errorf("status: group %q negative mutant accounting", g.Name)
		}
		if g.MutantsBudget > 0 && g.MutantsSpent > g.MutantsBudget {
			return nil, fmt.Errorf("status: group %q spent %d over its budget %d", g.Name, g.MutantsSpent, g.MutantsBudget)
		}
		unitSum += g.UnitsTotal
		doneUnits += g.UnitsDone
		if g.Done {
			doneGroups++
		}
		if g.Found {
			foundGroups++
		}
		budgetSum += g.MutantsBudget
	}
	if len(s.Groups) != 0 {
		if unitSum != s.UnitsTotal {
			return nil, fmt.Errorf("status: group unit counts sum to %d, units_total is %d", unitSum, s.UnitsTotal)
		}
		if doneUnits != s.UnitsDone {
			return nil, fmt.Errorf("status: group units_done sum to %d, summary says %d", doneUnits, s.UnitsDone)
		}
		if doneGroups != s.GroupsDone {
			return nil, fmt.Errorf("status: %d group rows marked done, summary says %d", doneGroups, s.GroupsDone)
		}
		if foundGroups != s.GroupsFound {
			return nil, fmt.Errorf("status: %d group rows marked found, summary says %d", foundGroups, s.GroupsFound)
		}
		if budgetSum != s.MutantsBudget {
			return nil, fmt.Errorf("status: group budgets sum to %d, mutants_budget is %d", budgetSum, s.MutantsBudget)
		}
	}
	if s.Mutants < 0 || s.MutantsBudget < 0 || s.MutantsRemaining < 0 {
		return nil, fmt.Errorf("status: negative mutant accounting (mutants=%d budget=%d remaining=%d)",
			s.Mutants, s.MutantsBudget, s.MutantsRemaining)
	}
	if s.MutantsRemaining > s.MutantsBudget {
		return nil, fmt.Errorf("status: mutants_remaining %d > mutants_budget %d", s.MutantsRemaining, s.MutantsBudget)
	}
	if s.TVCacheHits < 0 || s.TVCacheMisses < 0 || s.SATConflicts < 0 || s.TVStaticProved < 0 {
		return nil, fmt.Errorf("status: negative TV counters (hits=%d misses=%d conflicts=%d static=%d)",
			s.TVCacheHits, s.TVCacheMisses, s.SATConflicts, s.TVStaticProved)
	}
	if s.RatePerSec < 0 {
		return nil, fmt.Errorf("status: negative rate_per_sec %g", s.RatePerSec)
	}
	if s.ETANS < -1 {
		return nil, fmt.Errorf("status: eta_ns %d (want >= -1)", s.ETANS)
	}
	for _, st := range s.Stages {
		if st.Name == "" || st.Count < 0 || st.TotalNS < 0 {
			return nil, fmt.Errorf("status: bad stage row %+v", st)
		}
	}
	return &s, nil
}
