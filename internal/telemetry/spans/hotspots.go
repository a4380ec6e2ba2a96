package spans

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// HotspotsSchemaV1 identifies the machine-readable hotspot report.
const HotspotsSchemaV1 = "alive-mutate-hotspots/v1"

// Entry is one ranked hotspot: a seed function, a mutant, a formula (the
// solve stage's key), or a whole unit, with the TV cost attributed to it.
// StaticProved counts the queries that folded during encoding and so were
// Valid without a SAT solve.
type Entry struct {
	Name         string `json:"name"`
	Queries      int64  `json:"queries"`
	WallNS       int64  `json:"wall_ns"`
	Conflicts    int64  `json:"conflicts"`
	Propagations int64  `json:"propagations,omitempty"`
	CacheMisses  int64  `json:"cache_misses"`
	Unknowns     int64  `json:"unknowns"`
	StaticProved int64  `json:"static_proved,omitempty"`
}

// Hotspots is the full report: campaign-wide totals plus the top-N
// rankings the next perf PR aims at. Rank order is TV wall-clock
// descending, then sat.conflicts, then query count, then name — so in
// deterministic span mode (all wall-clock zeroed) the solver-effort
// counters govern and the report is still fully deterministic.
type Hotspots struct {
	Schema        string `json:"schema"`
	Deterministic bool   `json:"deterministic,omitempty"`

	Units                int   `json:"units"`
	Queries              int64 `json:"queries"`
	TVWallNS             int64 `json:"tv_wall_ns"`
	Conflicts            int64 `json:"conflicts"`
	Propagations         int64 `json:"propagations"`
	CacheHits            int64 `json:"cache_hits"`
	CacheMisses          int64 `json:"cache_misses"`
	Unknowns             int64 `json:"unknowns"`
	StaticProved         int64 `json:"static_proved,omitempty"`
	BudgetExhaustedUnits int   `json:"budget_exhausted_units"`

	TopUnits     []Entry `json:"top_units"`
	TopFunctions []Entry `json:"top_functions"`
	TopMutants   []Entry `json:"top_mutants"`
	TopFormulas  []Entry `json:"top_formulas"`
}

// Compute aggregates unit span deltas into a hotspot report. topN bounds
// each ranking (<=0 means the default of 10). Unknown verdicts on
// budget-exhausted units are what the "raise the TV budget here" signal
// keys on; cache misses name the formulas the solve stage paid for.
func Compute(units []*UnitSpans, deterministic bool, topN int) *Hotspots {
	if topN <= 0 {
		topN = 10
	}
	h := &Hotspots{Schema: HotspotsSchemaV1, Deterministic: deterministic, Units: len(units)}
	byUnit := map[string]*Entry{}
	byFunc := map[string]*Entry{}
	byMutant := map[string]*Entry{}
	byFormula := map[string]*Entry{}

	for _, u := range units {
		if u.BudgetExhausted {
			h.BudgetExhaustedUnits++
		}
		unitKey := u.Group + "/" + u.Unit
		// Iteration numbers of mutant spans, keyed by span ID, so query
		// spans can name their mutant.
		mutantIter := map[int]int{}
		for _, s := range u.Spans {
			if s.Name == NameMutant {
				mutantIter[s.ID] = s.Iter
			}
			if s.Name != NameQuery {
				continue
			}
			h.Queries++
			h.TVWallNS += s.DurNS
			h.Conflicts += s.Conflicts
			h.Propagations += s.Propagations
			switch s.Cache {
			case CacheHit:
				h.CacheHits++
			case CacheMiss:
				h.CacheMisses++
			}
			unknown := int64(0)
			if s.Verdict == "unknown" {
				h.Unknowns++
				unknown = 1
			}
			miss := int64(0)
			if s.Cache == CacheMiss {
				miss = 1
			}
			static := int64(0)
			if s.Static == StaticProved {
				h.StaticProved++
				static = 1
			}
			add := func(m map[string]*Entry, key string) {
				e := m[key]
				if e == nil {
					e = &Entry{Name: key}
					m[key] = e
				}
				e.Queries++
				e.WallNS += s.DurNS
				e.Conflicts += s.Conflicts
				e.Propagations += s.Propagations
				e.CacheMisses += miss
				e.Unknowns += unknown
				e.StaticProved += static
			}
			add(byUnit, unitKey)
			if s.Func != "" {
				add(byFunc, s.Func)
			}
			if iter, ok := mutantIter[s.Parent]; ok {
				add(byMutant, fmt.Sprintf("%s#%d", unitKey, iter))
			}
			if s.FP != "" {
				add(byFormula, s.FP)
			}
		}
	}

	h.TopUnits = rank(byUnit, topN)
	h.TopFunctions = rank(byFunc, topN)
	h.TopMutants = rank(byMutant, topN)
	h.TopFormulas = rank(byFormula, topN)
	return h
}

func rank(m map[string]*Entry, topN int) []Entry {
	out := make([]Entry, 0, len(m))
	for _, e := range m {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return entryLess(out[i], out[j]) })
	if len(out) > topN {
		out = out[:topN]
	}
	return out
}

// entryLess is the ranking order: costliest first, name as the final
// deterministic tiebreak.
func entryLess(a, b Entry) bool {
	if a.WallNS != b.WallNS {
		return a.WallNS > b.WallNS
	}
	if a.Conflicts != b.Conflicts {
		return a.Conflicts > b.Conflicts
	}
	if a.Queries != b.Queries {
		return a.Queries > b.Queries
	}
	return a.Name < b.Name
}

// Table renders the human-readable report. Fingerprints are abbreviated
// for the table; the JSON carries them in full.
func (h *Hotspots) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hotspots: %d units, %d TV queries, %s wall",
		h.Units, h.Queries, fmtNS(h.TVWallNS))
	fmt.Fprintf(&b, ", %d conflicts, cache %d hit / %d miss, %d unknown, %d statically discharged, %d budget-exhausted units\n",
		h.Conflicts, h.CacheHits, h.CacheMisses, h.Unknowns, h.StaticProved, h.BudgetExhaustedUnits)
	section := func(title string, entries []Entry, abbrev bool) {
		if len(entries) == 0 {
			return
		}
		fmt.Fprintf(&b, "\n%s\n", title)
		fmt.Fprintf(&b, "  %-44s %8s %10s %10s %7s %8s %7s\n",
			"name", "queries", "wall", "conflicts", "miss", "unknown", "static")
		for _, e := range entries {
			name := e.Name
			if abbrev && len(name) > 16 {
				name = name[:16] + "…"
			}
			if len(name) > 44 {
				name = name[:43] + "…"
			}
			fmt.Fprintf(&b, "  %-44s %8d %10s %10d %7d %8d %7d\n",
				name, e.Queries, fmtNS(e.WallNS), e.Conflicts, e.CacheMisses, e.Unknowns,
				e.StaticProved)
		}
	}
	section("top units by TV cost", h.TopUnits, false)
	section("top seed functions by TV cost", h.TopFunctions, false)
	section("top mutants by TV cost", h.TopMutants, false)
	section("top formula fingerprints by TV cost", h.TopFormulas, true)
	return b.String()
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// ValidateHotspots strictly parses an alive-mutate-hotspots/v1 document
// and checks its internal invariants.
func ValidateHotspots(data []byte) (*Hotspots, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	h := &Hotspots{}
	if err := dec.Decode(h); err != nil {
		return nil, fmt.Errorf("hotspots: %w", err)
	}
	if h.Schema != HotspotsSchemaV1 {
		return nil, fmt.Errorf("hotspots: schema %q, want %q", h.Schema, HotspotsSchemaV1)
	}
	if h.Units < 0 || h.Queries < 0 || h.TVWallNS < 0 || h.Conflicts < 0 ||
		h.Propagations < 0 || h.CacheHits < 0 || h.CacheMisses < 0 ||
		h.Unknowns < 0 || h.StaticProved < 0 || h.BudgetExhaustedUnits < 0 {
		return nil, fmt.Errorf("hotspots: negative totals")
	}
	if h.CacheHits+h.CacheMisses > h.Queries {
		return nil, fmt.Errorf("hotspots: cache hits+misses (%d) exceed queries (%d)",
			h.CacheHits+h.CacheMisses, h.Queries)
	}
	if h.StaticProved > h.Queries {
		return nil, fmt.Errorf("hotspots: statically discharged (%d) exceed queries (%d)",
			h.StaticProved, h.Queries)
	}
	if h.Deterministic && h.TVWallNS != 0 {
		return nil, fmt.Errorf("hotspots: deterministic report carries wall-clock")
	}
	for _, section := range [][]Entry{h.TopUnits, h.TopFunctions, h.TopMutants, h.TopFormulas} {
		for i, e := range section {
			if e.Name == "" {
				return nil, fmt.Errorf("hotspots: unnamed entry at rank %d", i)
			}
			if e.Queries < 0 || e.WallNS < 0 || e.Conflicts < 0 || e.Propagations < 0 ||
				e.CacheMisses < 0 || e.Unknowns < 0 || e.StaticProved < 0 {
				return nil, fmt.Errorf("hotspots: negative counters on %q", e.Name)
			}
			if max(e.CacheMisses, e.Unknowns, e.StaticProved) > e.Queries {
				return nil, fmt.Errorf("hotspots: per-query counters on %q exceed its %d queries", e.Name, e.Queries)
			}
			if i > 0 && entryLess(e, section[i-1]) {
				return nil, fmt.Errorf("hotspots: ranking out of order at %q", e.Name)
			}
		}
	}
	return h, nil
}
