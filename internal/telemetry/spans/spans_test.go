package spans

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestRecorderTree builds one unit the way the fuzzing loop does and
// checks the materialized tree: dense IDs, correct parents, attributes
// in place, wall-clock present in wall mode.
func TestRecorderTree(t *testing.T) {
	s := NewStore(false)
	r := s.NewRecorder("g", "u", 3, 99)

	r.BeginMutant(0, 111)
	r.Stage(StageMutate, time.Millisecond)
	r.Stage(StageOpt, 2*time.Millisecond)
	r.Func("f1")
	r.Query(QueryInfo{Verdict: "valid", FP: "ab", Cache: CacheMiss, Static: StaticProved, Conflicts: 5, Propagations: 20}, 3*time.Millisecond)
	r.EndMutant(false)

	// Fast-path mutant: no query, not kept — must leave no trace.
	r.BeginMutant(1, 222)
	r.Stage(StageMutate, time.Millisecond)
	r.EndMutant(false)

	// Crash mutant: kept despite no query.
	r.BeginMutant(2, 333)
	r.Stage(StageMutate, time.Millisecond)
	r.EndMutant(true)

	u := r.Finish(3, true)
	if u.Group != "g" || u.Unit != "u" || u.Index != 3 || u.Seed != 99 {
		t.Fatalf("unit identity = %+v", u)
	}
	if u.BudgetSpent != 3 || !u.BudgetExhausted {
		t.Errorf("budget = %d/%v", u.BudgetSpent, u.BudgetExhausted)
	}
	// root + (mutant0 + 3 children) + (mutant2 + 1 child) = 7 spans.
	if len(u.Spans) != 7 {
		t.Fatalf("got %d spans: %+v", len(u.Spans), u.Spans)
	}
	for i, sp := range u.Spans {
		if sp.ID != i {
			t.Errorf("span %d has id %d", i, sp.ID)
		}
	}
	root := u.Spans[0]
	if root.Name != NameUnit || root.Parent != -1 || root.DurNS <= 0 {
		t.Errorf("root = %+v", root)
	}
	m0 := u.Spans[1]
	if m0.Name != NameMutant || m0.Iter != 0 || m0.Seed != 111 || m0.Parent != 0 {
		t.Errorf("mutant0 = %+v", m0)
	}
	for _, sp := range u.Spans[2:5] {
		if sp.Parent != m0.ID {
			t.Errorf("child %+v not under mutant0", sp)
		}
	}
	q := u.Spans[4]
	if q.Name != NameQuery || q.Func != "f1" || q.FP != "ab" || q.Verdict != "valid" ||
		q.Cache != CacheMiss || q.Conflicts != 5 || q.Propagations != 20 || q.DurNS != int64(3*time.Millisecond) {
		t.Errorf("query = %+v", q)
	}
	m2 := u.Spans[5]
	if m2.Name != NameMutant || m2.Iter != 2 || m2.Parent != 0 {
		t.Errorf("crash mutant = %+v", m2)
	}
	if err := validateUnit(u, false); err != nil {
		t.Errorf("recorded unit fails validation: %v", err)
	}
}

// TestRecorderDeterministic: deterministic mode zeroes every offset and
// duration at record time, so two recordings of the same structure are
// deeply equal regardless of real elapsed time.
func TestRecorderDeterministic(t *testing.T) {
	record := func(sleep time.Duration) *UnitSpans {
		r := NewStore(true).NewRecorder("g", "u", 0, 7)
		r.BeginMutant(0, 1)
		time.Sleep(sleep)
		r.Stage(StageMutate, sleep)
		r.Func("f")
		r.Query(QueryInfo{Verdict: "invalid", FP: "cd", Cache: CacheHit, Conflicts: 2, Propagations: 8}, sleep)
		r.EndMutant(false)
		return r.Finish(1, false)
	}
	a := record(0)
	b := record(2 * time.Millisecond)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("deterministic recordings differ:\n%s\n%s", aj, bj)
	}
	for i, sp := range a.Spans {
		if sp.OffNS != 0 || sp.DurNS != 0 {
			t.Errorf("span %d carries wall-clock in deterministic mode: %+v", i, sp)
		}
	}
	if err := validateUnit(a, true); err != nil {
		t.Errorf("deterministic unit fails validation: %v", err)
	}
}

// TestRecorderNilSafe: every method must be a no-op on a nil Recorder —
// call sites in the hot loop have no enablement branches.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder // what a nil Store's NewRecorder returns
	if got := (*Store)(nil).NewRecorder("g", "u", 0, 0); got != nil {
		t.Fatalf("nil store returned recorder %+v", got)
	}
	r.BeginMutant(0, 0)
	r.Stage(StageMutate, time.Millisecond)
	r.Func("f")
	r.Query(QueryInfo{Verdict: "valid"}, 0)
	r.EndMutant(true)
	if u := r.Finish(0, false); u != nil {
		t.Errorf("nil recorder finished to %+v", u)
	}

	var s *Store
	s.Add(&UnitSpans{})
	if s.Len() != 0 || s.Units() != nil || s.Deterministic() {
		t.Error("nil store is not inert")
	}
}

// TestRecorderQueryOutsideMutant: a query with no open mutant attaches to
// the unit root instead of being lost.
func TestRecorderQueryOutsideMutant(t *testing.T) {
	r := NewStore(true).NewRecorder("g", "u", 0, 0)
	r.Query(QueryInfo{Verdict: "valid", Conflicts: 1}, 0)
	u := r.Finish(0, false)
	if len(u.Spans) != 2 || u.Spans[1].Name != NameQuery || u.Spans[1].Parent != 0 {
		t.Errorf("stray query spans = %+v", u.Spans)
	}
	if err := validateUnit(u, true); err != nil {
		t.Errorf("validation: %v", err)
	}
}

// unitFixture returns a small valid delta for store tests.
func unitFixture(group, unit string, index int, conflicts int64) *UnitSpans {
	r := NewStore(true).NewRecorder(group, unit, index, 1)
	r.BeginMutant(0, 2)
	r.Func("f_" + unit)
	r.Query(QueryInfo{Verdict: "valid", FP: "fp" + unit, Cache: CacheMiss, Conflicts: conflicts, Propagations: conflicts * 4}, 0)
	r.EndMutant(false)
	return r.Finish(1, false)
}

// TestStoreCanonicalOrder: Units() and the file are ordered by
// (group, index) regardless of Add order, so any -workers interleaving
// serializes identically.
func TestStoreCanonicalOrder(t *testing.T) {
	s := NewStore(true)
	s.Add(unitFixture("zz", "u1", 1, 1))
	s.Add(unitFixture("aa", "u9", 9, 2))
	s.Add(unitFixture("zz", "u0", 0, 3))
	s.Add(unitFixture("aa", "u2", 2, 4))

	var order []string
	for _, u := range s.Units() {
		order = append(order, u.Group+"/"+u.Unit)
	}
	want := "aa/u2 aa/u9 zz/u0 zz/u1"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("canonical order = %q, want %q", got, want)
	}

	// Same deltas added in a different order write byte-identical files.
	s2 := NewStore(true)
	s2.Add(unitFixture("aa", "u2", 2, 4))
	s2.Add(unitFixture("zz", "u0", 0, 3))
	s2.Add(unitFixture("zz", "u1", 1, 1))
	s2.Add(unitFixture("aa", "u9", 9, 2))
	var b1, b2 bytes.Buffer
	if _, err := s.WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("add order leaked into the file:\n%s\n%s", b1.String(), b2.String())
	}
}

// TestStoreRoundTrip: WriteTo output parses back losslessly through the
// strict reader.
func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(true)
	s.Add(unitFixture("g", "u0", 0, 10))
	s.Add(unitFixture("g", "u1", 1, 20))
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	f, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Deterministic || len(f.Units) != 2 {
		t.Fatalf("round-trip: det=%v units=%d", f.Deterministic, len(f.Units))
	}
	got, _ := json.Marshal(f.Units)
	want, _ := json.Marshal(s.Units())
	if !bytes.Equal(got, want) {
		t.Errorf("round-trip changed the deltas:\n%s\n%s", got, want)
	}
}

// TestReadRejects: the reader refuses malformed files rather than
// computing garbage hotspots from them.
func TestReadRejects(t *testing.T) {
	valid := func() string {
		s := NewStore(true)
		s.Add(unitFixture("g", "u0", 0, 1))
		s.Add(unitFixture("g", "u1", 1, 2))
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()
	lines := strings.Split(strings.TrimSuffix(valid, "\n"), "\n")

	cases := map[string]string{
		"empty file":          "",
		"bad schema":          strings.Replace(valid, SchemaV1, "nope/v9", 1),
		"unknown field":       strings.Replace(valid, `"group"`, `"gruop"`, 1),
		"truncated (trailer)": lines[0] + "\n" + lines[1] + "\n" + lines[3] + "\n",
		"out of order":        lines[0] + "\n" + lines[2] + "\n" + lines[1] + "\n" + lines[3] + "\n",
		"wall-clock in det":   strings.Replace(valid, `"budget_spent":1`, `"budget_spent":1,"spans":[{"id":0,"parent":-1,"name":"unit","dur_ns":5}]`, 1),
	}
	for name, data := range cases {
		if _, err := Read(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := Read(strings.NewReader(valid)); err != nil {
		t.Errorf("control: valid file rejected: %v", err)
	}
}

// TestHotspotsCompute checks aggregation and the deterministic ranking
// over a hand-built corpus of deltas.
func TestHotspotsCompute(t *testing.T) {
	mk := func(unit string, index int, queries []Span, exhausted bool) *UnitSpans {
		u := &UnitSpans{Group: "g", Unit: unit, Index: index, BudgetSpent: 1, BudgetExhausted: exhausted,
			Spans: []Span{{ID: 0, Parent: -1, Name: NameUnit}}}
		m := Span{ID: 1, Parent: 0, Name: NameMutant, Iter: 4}
		u.Spans = append(u.Spans, m)
		for _, q := range queries {
			q.ID = len(u.Spans)
			q.Parent = 1
			q.Name = NameQuery
			u.Spans = append(u.Spans, q)
		}
		return u
	}
	units := []*UnitSpans{
		mk("u0", 0, []Span{
			{Func: "fa", FP: "aaaa", Verdict: "valid", Cache: CacheMiss, Conflicts: 100, Propagations: 400},
			{Func: "fa", FP: "aaaa", Verdict: "valid", Cache: CacheHit},
		}, false),
		mk("u1", 1, []Span{
			{Func: "fb", FP: "bbbb", Verdict: "unknown", Cache: CacheMiss, Conflicts: 900, Propagations: 100},
		}, true),
	}
	h := Compute(units, true, 10)
	if h.Units != 2 || h.Queries != 3 || h.Conflicts != 1000 || h.Propagations != 500 {
		t.Errorf("totals = %+v", h)
	}
	if h.CacheHits != 1 || h.CacheMisses != 2 || h.Unknowns != 1 || h.BudgetExhaustedUnits != 1 {
		t.Errorf("cache/unknown totals = %+v", h)
	}
	// Deterministic mode: conflicts govern the ranking, so u1/fb/bbbb lead.
	if len(h.TopUnits) != 2 || h.TopUnits[0].Name != "g/u1" {
		t.Errorf("top units = %+v", h.TopUnits)
	}
	if len(h.TopFunctions) != 2 || h.TopFunctions[0].Name != "fb" || h.TopFunctions[1].Name != "fa" {
		t.Errorf("top functions = %+v", h.TopFunctions)
	}
	if len(h.TopMutants) != 2 || h.TopMutants[0].Name != "g/u1#4" {
		t.Errorf("top mutants = %+v", h.TopMutants)
	}
	if len(h.TopFormulas) != 2 || h.TopFormulas[0].Name != "bbbb" ||
		h.TopFormulas[0].Unknowns != 1 || h.TopFormulas[0].CacheMisses != 1 {
		t.Errorf("top formulas = %+v", h.TopFormulas)
	}

	// topN truncation.
	if got := Compute(units, true, 1); len(got.TopFunctions) != 1 || got.TopFunctions[0].Name != "fb" {
		t.Errorf("topN=1 functions = %+v", got.TopFunctions)
	}

	// The table names the winners and the JSON round-trips the validator.
	table := h.Table()
	for _, want := range []string{"2 units", "3 TV queries", "1000 conflicts", "fb", "g/u1#4", "bbbb"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateHotspots(data); err != nil {
		t.Errorf("computed report fails validation: %v", err)
	}
}

// TestValidateHotspotsRejects covers the report validator's invariants.
func TestValidateHotspotsRejects(t *testing.T) {
	base := func() *Hotspots {
		return Compute([]*UnitSpans{unitFixture("g", "u0", 0, 5)}, true, 10)
	}
	marshal := func(h *Hotspots) []byte {
		data, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"bad schema": marshal(func() *Hotspots { h := base(); h.Schema = "x"; return h }()),
		"negative":   marshal(func() *Hotspots { h := base(); h.Queries = -1; return h }()),
		"cache > queries": marshal(func() *Hotspots {
			h := base()
			h.CacheHits = 5
			return h
		}()),
		"det wall-clock": marshal(func() *Hotspots { h := base(); h.TVWallNS = 9; return h }()),
		"unsorted": marshal(func() *Hotspots {
			h := Compute([]*UnitSpans{unitFixture("g", "u0", 0, 5), unitFixture("g", "u1", 1, 9)}, true, 10)
			h.TopFunctions[0], h.TopFunctions[1] = h.TopFunctions[1], h.TopFunctions[0]
			return h
		}()),
		"unknown field":               []byte(`{"schema":"` + HotspotsSchemaV1 + `","surprise":1}`),
		"entry negative propagations": oneEntry(`{"name":"g/u0","queries":1,"wall_ns":0,"conflicts":0,"propagations":-5,"cache_misses":0,"unknowns":0}`),
		"entry misses > queries":      oneEntry(`{"name":"g/u0","queries":1,"wall_ns":0,"conflicts":0,"cache_misses":7,"unknowns":0}`),
	}
	for name, data := range cases {
		if _, err := ValidateHotspots(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ValidateHotspots(marshal(base())); err != nil {
		t.Errorf("control: valid report rejected: %v", err)
	}
	if _, err := ValidateHotspots(oneEntry(`{"name":"g/u0","queries":1,"wall_ns":0,"conflicts":0,"cache_misses":1,"unknowns":1}`)); err != nil {
		t.Errorf("control: valid one-entry report rejected: %v", err)
	}
}

// oneEntry is a hotspot report of one unit and one query whose only unit
// ranking is the given entry.
func oneEntry(entry string) []byte {
	return []byte(`{"schema":"` + HotspotsSchemaV1 + `","units":1,"queries":1,"tv_wall_ns":0,"conflicts":0,` +
		`"propagations":0,"cache_hits":0,"cache_misses":1,"unknowns":1,"budget_exhausted_units":0,` +
		`"top_units":[` + entry + `],"top_functions":[],"top_mutants":[],"top_formulas":[]}`)
}
