// The benchmark result document (`bench-throughput -json`): the repo's
// recorded perf trajectory, one BENCH_throughput.json per committed
// baseline. The schema is versioned; ValidateBench is the checker CI and
// cmd/telemetry-check run over the artifact.

package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// BenchSchemaV1 identifies the benchmark document format.
const BenchSchemaV1 = "alive-mutate-bench/v1"

// BenchFile is one input file's measurement in a benchmark document.
type BenchFile struct {
	File         string  `json:"file"`
	IntegratedNS int64   `json:"integrated_ns"`
	DiscreteNS   int64   `json:"discrete_ns"`
	Speedup      float64 `json:"speedup"`
}

// Bench is the machine-readable throughput-benchmark result (paper §V-B):
// integrated-vs-discrete wall times per file plus the integrated loop's
// per-stage breakdown. Both sides verify under plain TV settings, so
// there is no solver configuration to record.
type Bench struct {
	Schema         string           `json:"schema"`
	Workers        int              `json:"workers"`
	MutantsPerFile int              `json:"mutants_per_file"`
	Passes         string           `json:"passes"`
	Seed           uint64           `json:"seed"`
	WallNS         int64            `json:"wall_ns"` // whole experiment
	Files          []BenchFile      `json:"files"`
	AvgSpeedup     float64          `json:"avg_speedup"`
	StagesNS       map[string]int64 `json:"integrated_stages_ns"`
}

// MarshalIndentedJSON renders the document for -json output.
func (b *Bench) MarshalIndentedJSON() ([]byte, error) {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// ValidateBench parses data as a Bench document and checks its schema
// invariants: per-file timings must be positive and each file's speedup
// must agree with its own timings (the redundancy is what makes hand
// edits and serialization bugs detectable).
func ValidateBench(data []byte) (*Bench, error) {
	var b Bench
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("bench: not a valid document: %w", err)
	}
	if b.Schema != BenchSchemaV1 {
		return nil, fmt.Errorf("bench: schema %q, want %q", b.Schema, BenchSchemaV1)
	}
	if b.Workers <= 0 {
		return nil, fmt.Errorf("bench: workers must be positive (got %d)", b.Workers)
	}
	if b.MutantsPerFile <= 0 {
		return nil, fmt.Errorf("bench: mutants_per_file must be positive (got %d)", b.MutantsPerFile)
	}
	if b.WallNS <= 0 {
		return nil, fmt.Errorf("bench: wall_ns must be positive (got %d)", b.WallNS)
	}
	for i, f := range b.Files {
		if f.File == "" {
			return nil, fmt.Errorf("bench: files[%d] has no name", i)
		}
		if f.IntegratedNS <= 0 || f.DiscreteNS <= 0 {
			return nil, fmt.Errorf("bench: %s has non-positive timings (integrated=%d discrete=%d)", f.File, f.IntegratedNS, f.DiscreteNS)
		}
		want := float64(f.DiscreteNS) / float64(f.IntegratedNS)
		if f.Speedup <= 0 || !approxEqual(f.Speedup, want, 0.05) {
			return nil, fmt.Errorf("bench: %s speedup %.3f inconsistent with timings (%.3f)", f.File, f.Speedup, want)
		}
	}
	if len(b.Files) > 0 {
		sum := 0.0
		for _, f := range b.Files {
			sum += f.Speedup
		}
		want := sum / float64(len(b.Files))
		if !approxEqual(b.AvgSpeedup, want, 0.05) {
			return nil, fmt.Errorf("bench: avg_speedup %.3f inconsistent with files (%.3f)", b.AvgSpeedup, want)
		}
	}
	for name, ns := range b.StagesNS {
		if ns < 0 {
			return nil, fmt.Errorf("bench: stage %q has negative total (%d)", name, ns)
		}
	}
	return &b, nil
}

// approxEqual allows tol relative error — per-file speedups are recorded
// rounded, so exact float comparison would reject honest documents.
func approxEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	if m < 1 {
		m = 1
	}
	return d <= tol*m
}
