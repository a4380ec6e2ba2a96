package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func tmpCkpt(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), CheckpointFile)
}

// TestCheckpointRoundTrip: WriteCheckpoint then LoadCheckpoint preserves
// meta, metrics, and unit records exactly.
func TestCheckpointRoundTrip(t *testing.T) {
	path := tmpCkpt(t)
	meta := CheckpointMeta{Kind: "bugs", Fingerprint: "budget=120 seed=7", Units: 42}
	coll := telemetry.NewCollector()
	coll.Add("checkpoint.test", 3)
	records := []UnitRecord{
		{Group: "53218", Index: 0, Name: "icmp_eq_chain", Seed: 99, DurNS: 1000, State: json.RawMessage(`{"spent":60}`)},
		{Group: "53218", Index: 1, Name: "other", Seed: 99, Done: true, State: json.RawMessage(`{"spent":120}`)},
		{Group: "55287", Index: 0, Name: "with_err", Seed: 7, Err: "seed broken", State: json.RawMessage(`{}`)},
	}
	n, err := WriteCheckpoint(path, meta, coll.Snapshot(), records)
	if err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(n) {
		t.Fatalf("reported %d bytes, on disk %v (%v)", n, fi, err)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if cp.Meta != meta {
		t.Errorf("meta round-trip: got %+v, want %+v", cp.Meta, meta)
	}
	if cp.Metrics == nil || cp.Metrics.Counters["checkpoint.test"] != 3 {
		t.Errorf("metrics round-trip: %+v", cp.Metrics)
	}
	if len(cp.Records) != len(records) {
		t.Fatalf("got %d records, want %d", len(cp.Records), len(records))
	}
	for i, rec := range cp.Records {
		want := records[i]
		if rec.Group != want.Group || rec.Index != want.Index || rec.Name != want.Name ||
			rec.Seed != want.Seed || rec.Done != want.Done || rec.Err != want.Err ||
			rec.DurNS != want.DurNS || string(rec.State) != string(want.State) {
			t.Errorf("record %d round-trip:\n  got  %+v\n  want %+v", i, rec, want)
		}
	}
}

// TestCheckpointAtomicReplace: a rewrite fully replaces the previous
// snapshot and leaves no temp files behind.
func TestCheckpointAtomicReplace(t *testing.T) {
	path := tmpCkpt(t)
	meta := CheckpointMeta{Kind: "bugs", Units: 1}
	if _, err := WriteCheckpoint(path, meta, nil, nil); err != nil {
		t.Fatal(err)
	}
	recs := []UnitRecord{{Group: "g", Index: 0}}
	if _, err := WriteCheckpoint(path, meta, nil, recs); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Records) != 1 {
		t.Errorf("got %d records after rewrite, want 1", len(cp.Records))
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != CheckpointFile {
			t.Errorf("stray file %q left in checkpoint dir", e.Name())
		}
	}
}

// TestCheckpointCorruption: every structural defect must fail the load
// with a descriptive error — never a silent partial resume.
func TestCheckpointCorruption(t *testing.T) {
	valid := func(t *testing.T) string {
		path := tmpCkpt(t)
		recs := []UnitRecord{
			{Group: "g", Index: 0, State: json.RawMessage(`{}`)},
			{Group: "g", Index: 1, State: json.RawMessage(`{}`)},
		}
		if _, err := WriteCheckpoint(path, CheckpointMeta{Kind: "bugs", Units: 2}, nil, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	lines := func(t *testing.T, path string) []string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	rewrite := func(t *testing.T, path string, lines []string) {
		body := strings.Join(lines, "\n")
		if body != "" {
			body += "\n"
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name    string
		mutate  func(t *testing.T, path string)
		wantErr string
	}{
		{
			name:    "missing file",
			mutate:  func(t *testing.T, path string) { os.Remove(path) },
			wantErr: "no such file",
		},
		{
			name: "empty file",
			mutate: func(t *testing.T, path string) {
				rewrite(t, path, nil)
			},
			wantErr: "empty file",
		},
		{
			name: "truncated tail no newline",
			mutate: func(t *testing.T, path string) {
				data, _ := os.ReadFile(path)
				os.WriteFile(path, data[:len(data)-10], 0o644)
			},
			wantErr: "truncated tail",
		},
		{
			name: "truncated mid-line",
			mutate: func(t *testing.T, path string) {
				ls := lines(t, path)
				last := ls[len(ls)-1]
				ls[len(ls)-1] = last[:len(last)/2]
				rewrite(t, path, ls)
			},
			wantErr: "truncated tail",
		},
		{
			name: "missing trailer",
			mutate: func(t *testing.T, path string) {
				ls := lines(t, path)
				rewrite(t, path, ls[:len(ls)-1])
			},
			wantErr: "missing trailer",
		},
		{
			name: "trailer count mismatch",
			mutate: func(t *testing.T, path string) {
				ls := lines(t, path)
				// Drop one unit line but keep the trailer.
				rewrite(t, path, append(ls[:len(ls)-2:len(ls)-2], ls[len(ls)-1]))
			},
			wantErr: "truncated or corrupt",
		},
		{
			name: "unknown version",
			mutate: func(t *testing.T, path string) {
				ls := lines(t, path)
				ls[0] = strings.Replace(ls[0], `"v":1`, `"v":99`, 1)
				rewrite(t, path, ls)
			},
			wantErr: "unsupported checkpoint version 99",
		},
		{
			name: "unknown record kind",
			mutate: func(t *testing.T, path string) {
				ls := lines(t, path)
				withExtra := append(ls[:len(ls)-1:len(ls)-1], `{"line":"hologram","x":1}`, ls[len(ls)-1])
				rewrite(t, path, withExtra)
			},
			wantErr: "unknown record kind",
		},
		{
			name: "garbage line",
			mutate: func(t *testing.T, path string) {
				ls := lines(t, path)
				withExtra := append(ls[:1:1], append([]string{"not json at all"}, ls[1:]...)...)
				rewrite(t, path, withExtra)
			},
			wantErr: "not a JSON object",
		},
		{
			name: "header not first",
			mutate: func(t *testing.T, path string) {
				ls := lines(t, path)
				ls[0], ls[1] = ls[1], ls[0]
				rewrite(t, path, ls)
			},
			wantErr: "want header",
		},
		{
			name: "duplicate header",
			mutate: func(t *testing.T, path string) {
				ls := lines(t, path)
				withExtra := append(ls[:1:1], append([]string{ls[0]}, ls[1:]...)...)
				rewrite(t, path, withExtra)
			},
			wantErr: "duplicate header",
		},
		{
			name: "trailer before end",
			mutate: func(t *testing.T, path string) {
				ls := lines(t, path)
				trailer := ls[len(ls)-1]
				withExtra := append(ls[:1:1], append([]string{trailer}, ls[1:]...)...)
				rewrite(t, path, withExtra)
			},
			wantErr: "trailer before end",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := valid(t)
			tc.mutate(t, path)
			cp, err := LoadCheckpoint(path)
			if err == nil {
				t.Fatalf("corrupted checkpoint loaded successfully: %+v", cp)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// toyEncode round-trips the toy units' int results for the engine tests.
func toyEncode(res any) ([]byte, error) { return json.Marshal(res.(int)) }

// toyUnits builds n single-group chains of depth units each; every unit
// adds its index to the chained sum.
func toyUnits(groups, depth int, ran *[][]bool) []Unit {
	*ran = make([][]bool, groups)
	var units []Unit
	for g := 0; g < groups; g++ {
		g := g
		(*ran)[g] = make([]bool, depth)
		for i := 0; i < depth; i++ {
			i := i
			units = append(units, Unit{
				Group: fmt.Sprintf("g%d", g),
				Name:  fmt.Sprintf("u%d", i),
				Seed:  uint64(g*100 + i),
				Run: func(ctx context.Context, prev any) (any, bool, error) {
					(*ran)[g][i] = true
					sum := 0
					if prev != nil {
						sum = prev.(int)
					}
					return sum + i + 1, false, nil
				},
			})
		}
	}
	return units
}

// TestEngineCheckpointRestore: a run stopped by the fault-injection hook
// leaves a checkpoint from which a second run completes the campaign
// without re-executing restored units, and with identical final results.
func TestEngineCheckpointRestore(t *testing.T) {
	path := tmpCkpt(t)
	var ranRef [][]bool
	refOutcomes, err := Run(context.Background(), toyUnits(3, 4, &ranRef), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := func() *CheckpointConfig {
		return &CheckpointConfig{Path: path, Meta: CheckpointMeta{Kind: "toy", Units: 12}, Encode: toyEncode}
	}
	var ranA [][]bool
	if _, err := Run(context.Background(), toyUnits(3, 4, &ranA), Options{
		Workers: 1, Checkpoint: ckpt(), StopAfterUnits: 5,
	}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Records) != 5 {
		t.Fatalf("checkpoint has %d records after StopAfterUnits=5, want 5", len(cp.Records))
	}

	var restored []RestoredUnit
	for _, rec := range cp.Records {
		var v int
		if err := json.Unmarshal(rec.State, &v); err != nil {
			t.Fatal(err)
		}
		restored = append(restored, RestoredUnit{Record: rec, Res: v})
	}
	var ranB [][]bool
	outcomes, err := Run(context.Background(), toyUnits(3, 4, &ranB), Options{
		Workers: 4, Checkpoint: ckpt(), Restore: restored,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Only checkpointed completions count as restored: a unit that ran in
	// run A after its cancel (and was excluded) legitimately re-runs.
	for _, rec := range cp.Records {
		var g int
		fmt.Sscanf(rec.Group, "g%d", &g)
		if ranB[g][rec.Index] {
			t.Errorf("restored unit %s/%d re-executed on resume", rec.Group, rec.Index)
		}
	}
	for i := range outcomes {
		if outcomes[i].Res != refOutcomes[i].Res {
			t.Errorf("unit %d: resumed result %v, uninterrupted %v", i, outcomes[i].Res, refOutcomes[i].Res)
		}
	}
	// The resumed run's final checkpoint covers the whole campaign.
	cp, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Records) != 12 {
		t.Errorf("final checkpoint has %d records, want 12", len(cp.Records))
	}
}

// TestEngineRestoreValidation: restore records that do not describe this
// campaign must fail loudly.
func TestEngineRestoreValidation(t *testing.T) {
	var ran [][]bool
	mk := func() []Unit { return toyUnits(2, 2, &ran) }
	cases := []struct {
		name    string
		rec     UnitRecord
		wantErr string
	}{
		{"unknown group", UnitRecord{Group: "nope", Index: 0}, "unknown group"},
		{"gap in chain", UnitRecord{Group: "g0", Index: 1}, "not contiguous"},
		{"name mismatch", UnitRecord{Group: "g0", Index: 0, Name: "wrong"}, "corpus changed"},
		{"seed mismatch", UnitRecord{Group: "g0", Index: 0, Name: "u0", Seed: 12345}, "seed mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(context.Background(), mk(), Options{
				Workers: 1,
				Restore: []RestoredUnit{{Record: tc.rec, Res: 1}},
			})
			if err == nil {
				t.Fatal("invalid restore record accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestEngineCheckpointExcludesPostCancelCompletions: a unit that returns
// after cancellation may have been cut short mid-budget, so its
// completion must NOT be recorded — the checkpoint keeps only what
// finished while the campaign was live.
func TestEngineCheckpointExcludesPostCancelCompletions(t *testing.T) {
	path := tmpCkpt(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstDone := make(chan struct{})
	units := []Unit{
		{Group: "fast", Name: "u0", Run: func(ctx context.Context, prev any) (any, bool, error) {
			close(firstDone)
			return 1, false, nil
		}},
		{Group: "slow", Name: "u0", Run: func(ctx context.Context, prev any) (any, bool, error) {
			<-ctx.Done() // simulates a unit truncated mid-budget by the cancel
			return 999, false, nil
		}},
	}
	go func() {
		<-firstDone
		cancel()
	}()
	if _, err := Run(ctx, units, Options{
		Workers:    2,
		Checkpoint: &CheckpointConfig{Path: path, Meta: CheckpointMeta{Kind: "toy", Units: 2}, Encode: toyEncode},
	}); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range cp.Records {
		if rec.Group == "slow" {
			t.Errorf("post-cancellation completion recorded in checkpoint: %+v", rec)
		}
	}
}

// TestMergeSnapshot: counters and histograms fold back into a collector
// exactly (the resume path for pre-restart metrics).
func TestMergeSnapshot(t *testing.T) {
	a := telemetry.NewCollector()
	a.Add("x", 5)
	a.Observe("h", 1500)
	a.Observe("h", 3000)
	a.SetLabel("from", "a")
	snap := a.Snapshot()

	b := telemetry.NewCollector()
	b.Add("x", 2)
	b.Observe("h", 100)
	b.SetLabel("cmd", "test")
	b.MergeSnapshot(snap)

	got := b.Snapshot()
	if got.Counters["x"] != 7 {
		t.Errorf("counter x = %d, want 7", got.Counters["x"])
	}
	h := got.Histograms["h"]
	if h.Count != 3 || h.TotalNS != 4600 {
		t.Errorf("histogram h = count %d total %d, want 3/4600", h.Count, h.TotalNS)
	}
	if h.MinNS != 100 || h.MaxNS != 3000 {
		t.Errorf("histogram h min/max = %d/%d, want 100/3000", h.MinNS, h.MaxNS)
	}
	if got.Labels["from"] != "a" || got.Labels["cmd"] != "test" {
		t.Errorf("labels merged wrong: %v", got.Labels)
	}
	// The merged histogram still validates (bucket sum == count).
	data, err := got.MarshalIndentedJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateSnapshot(data); err != nil {
		t.Errorf("merged snapshot invalid: %v", err)
	}
}

// FuzzLoadCheckpoint: the checkpoint decoder must reject malformed bytes
// with an error, never panic, and whatever it accepts must survive a
// WriteCheckpoint/LoadCheckpoint round trip unchanged. The corpus starts
// from a real checkpoint and its truncated and reordered variants.
func FuzzLoadCheckpoint(f *testing.F) {
	path := filepath.Join(f.TempDir(), CheckpointFile)
	coll := telemetry.NewCollector()
	coll.Add("checkpoint.test", 3)
	records := []UnitRecord{
		{Group: "53218", Index: 0, Name: "icmp_eq_chain", Seed: 99, DurNS: 1000, State: json.RawMessage(`{"spent":60}`)},
		{Group: "55287", Index: 0, Name: "with_err", Seed: 7, Done: true, Err: "seed broken", State: json.RawMessage(`{}`)},
	}
	if _, err := WriteCheckpoint(path, CheckpointMeta{Kind: "bugs", Fingerprint: "seed=7", Units: 2}, coll.Snapshot(), records); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, n := range []int{1, len(data) / 2, len(data) - 1} {
		f.Add(data[:n])
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines = lines[:len(lines)-1] // the empty string after the final newline
	join := func(idx ...int) []byte {
		var b strings.Builder
		for _, i := range idx {
			b.WriteString(lines[i])
		}
		return []byte(b.String())
	}
	// lines: 0 header, 1 metrics, 2-3 units, 4 trailer.
	f.Add(join(0, 1, 2, 3))       // no trailer
	f.Add(join(0, 2, 1, 3, 4))    // metrics after a unit
	f.Add(join(0, 1, 4, 2, 3, 4)) // trailer in the middle
	f.Add(join(0, 0, 1, 2, 3, 4)) // two headers
	f.Add(join(1, 0, 2, 3, 4))    // metrics first
	f.Add(join(0, 1, 2, 4))       // trailer count mismatch
	f.Add([]byte(strings.Replace(string(data), `"line":"unit"`, `"line":"metrics"`, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint("fuzz", data)
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), CheckpointFile)
		if _, err := WriteCheckpoint(path, cp.Meta, cp.Metrics, cp.Records); err != nil {
			t.Fatalf("re-encoding an accepted checkpoint: %v", err)
		}
		again, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("reloading an accepted checkpoint: %v", err)
		}
		if again.Meta != cp.Meta || len(again.Records) != len(cp.Records) || (again.Metrics == nil) != (cp.Metrics == nil) {
			t.Fatalf("round trip changed the checkpoint: %+v -> %+v", cp, again)
		}
	})
}
