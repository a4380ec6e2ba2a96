package telemetry_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/spans"
)

// campaignOutputs are the documents a campaign writes: the -metrics-out
// snapshot, the /api/status body, the -spans-out file and
// campaign-profile's hotspot report.
type campaignOutputs struct {
	snapshot, status, spans, hotspots []byte
}

// tinyCampaign writes a two-unit campaign's outputs through the same
// writers a campaign records into: a Collector, a StatusPublisher and a
// spans Store. It records the campaign rather than running one, because
// linking internal/campaign into this test binary makes coverage-guided
// fuzzing of every target here hundreds of times slower.
func tinyCampaign(f *testing.F) campaignOutputs {
	f.Helper()
	coll := telemetry.NewCollector()
	coll.SetLabel("command", "fuzz-campaign")
	store := spans.NewStore(false)
	units := []telemetry.UnitStatus{
		{Group: "53218", Name: "gvn_flags_regression", Seed: 53221, State: "done", DurNS: 4763520},
		{Group: "53218", Name: "clamp_regression", Seed: 53221, State: "done", DurNS: 547369},
		{Group: "53218", Name: "bswap16", Seed: 53221, State: "skipped"},
	}
	for i, u := range units[:2] {
		rec := store.NewRecorder(u.Group, u.Name, i, u.Seed)
		for iter, verdict := range []string{"valid", "unknown", "invalid"} {
			rec.BeginMutant(iter+1, uint64(1000*i+iter))
			rec.Stage("mutate", 24*time.Microsecond)
			rec.Stage("opt", 68*time.Microsecond)
			rec.Func("cse_flags")
			q := spans.QueryInfo{Verdict: verdict, FP: "ad0a5cb6", Cache: spans.CacheMiss, Conflicts: int64(4000 * iter), Propagations: int64(90000 * iter)}
			rec.Query(q, 177*time.Microsecond)
			rec.EndMutant(verdict == "invalid")
			coll.Add("mutants", 1)
			coll.Add("tv.queries", 1)
			coll.Add("tv."+verdict, 1)
			coll.Add("sat.conflicts", int64(4000*iter))
			coll.ObserveStage("tv", 177*time.Microsecond)
			coll.Observe("tv.latency."+verdict, 177*time.Microsecond)
		}
		store.Add(rec.Finish(3, i == 1))
	}
	pub := telemetry.NewStatusPublisher()
	pub.Publish(&telemetry.StatusSnapshot{
		UnitsTotal: 3, UnitsDone: 2, UnitsSkipped: 1, GroupsTotal: 1, GroupsDone: 1,
		Mutants: 6, MutantsBudget: 6, Units: units,
		Groups: []telemetry.GroupStatus{{Name: "53218", UnitsTotal: 3, UnitsDone: 2, Done: true, MutantsSpent: 6, MutantsBudget: 6}},
	})

	var out campaignOutputs
	var err error
	if out.snapshot, err = coll.Snapshot().MarshalIndentedJSON(); err != nil {
		f.Fatal(err)
	}
	if out.status, err = json.Marshal(pub.Status()); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := store.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	out.spans = buf.Bytes()
	if out.hotspots, err = json.Marshal(spans.Compute(store.Units(), false, 10)); err != nil {
		f.Fatal(err)
	}
	return out
}

// seed adds a document, its truncations and a copy with its first digit
// bumped to the corpus, after checking the document itself is accepted.
func seed(f *testing.F, doc []byte, validate func([]byte) error) {
	f.Helper()
	if err := validate(doc); err != nil {
		f.Fatalf("the campaign's own document does not validate: %v", err)
	}
	f.Add(doc)
	for _, n := range []int{1, len(doc) / 2, len(doc) - 1} {
		f.Add(doc[:n])
	}
	if i := bytes.IndexAny(doc, "0123456789"); i >= 0 {
		bumped := bytes.Clone(doc)
		bumped[i] = '9'
		f.Add(bumped)
	}
}

// roundTrip re-validates a marshalling of an accepted document.
func roundTrip(t *testing.T, v any, validate func([]byte) error) {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted document does not marshal: %v", err)
	}
	if err := validate(out); err != nil {
		t.Fatalf("accepted document fails validation after a round trip: %v\n%s", err, out)
	}
}

// The decoders of campaign outputs read bytes from disk or the network,
// so malformed input must come back as an error, never a panic, and a
// document they accept must still be accepted after a round trip.

// FuzzValidateSnapshot covers the -metrics-out snapshot, the input of
// telemetry-check and its -compare mode.
func FuzzValidateSnapshot(f *testing.F) {
	validate := func(b []byte) error { _, err := telemetry.ValidateSnapshot(b); return err }
	seed(f, tinyCampaign(f).snapshot, validate)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := telemetry.ValidateSnapshot(data)
		if err != nil {
			return
		}
		roundTrip(t, s, validate)
	})
}

// FuzzValidateStatus covers the /api/status body (telemetry-check -status).
func FuzzValidateStatus(f *testing.F) {
	validate := func(b []byte) error { _, err := telemetry.ValidateStatus(b); return err }
	seed(f, tinyCampaign(f).status, validate)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := telemetry.ValidateStatus(data)
		if err != nil {
			return
		}
		roundTrip(t, s, validate)
	})
}

// FuzzReadSpans covers the -spans-out file (spans.Read). An accepted
// file is written back through a Store and must read again.
func FuzzReadSpans(f *testing.F) {
	validate := func(b []byte) error { _, err := spans.Read(bytes.NewReader(b)); return err }
	seed(f, tinyCampaign(f).spans, validate)
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := spans.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		store := spans.NewStore(file.Deterministic)
		for _, u := range file.Units {
			store.Add(u)
		}
		var buf bytes.Buffer
		if _, err := store.WriteTo(&buf); err != nil {
			t.Fatalf("accepted spans file does not write back: %v", err)
		}
		if err := validate(buf.Bytes()); err != nil {
			t.Fatalf("accepted spans file fails validation after a round trip: %v\n%s", err, buf.Bytes())
		}
	})
}

// FuzzValidateHotspots covers campaign-profile's -json report
// (telemetry-check -hotspots).
func FuzzValidateHotspots(f *testing.F) {
	validate := func(b []byte) error { _, err := spans.ValidateHotspots(b); return err }
	seed(f, tinyCampaign(f).hotspots, validate)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := spans.ValidateHotspots(data)
		if err != nil {
			return
		}
		roundTrip(t, h, validate)
	})
}
