// Durable campaign checkpoints (docs/CHECKPOINTING.md): the coordinator
// periodically serializes its completed-unit state to a versioned JSONL
// file so a killed campaign can resume and still produce a final table
// byte-identical to an uninterrupted run. Checkpoints are tiny because
// per-unit results are deterministic functions of their seeds: only the
// chained group state (budget spent, first finding, side-effect deltas)
// needs to survive a restart — everything else is recomputed.
//
// File layout (one JSON object per line):
//
//	{"line":"header","v":1,"meta":{...}}     exactly one, first
//	{"line":"metrics","snapshot":{...}}      at most one, second
//	{"line":"unit","group":...,"index":...}  zero or more, chain order
//	{"line":"trailer","units":N}             exactly one, last
//
// Writes are atomic: the whole document is written to a temp file in the
// checkpoint's directory and renamed over the previous snapshot, so the
// file on disk is always a complete checkpoint no matter when the
// process dies. A file that fails validation (unknown version or line
// kind, missing trailer, count mismatch, truncated tail) therefore
// indicates corruption or a newer writer, and loading fails outright —
// never a silent partial resume.

package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
)

// CheckpointVersion is the on-disk format version this package writes
// and the only one it accepts.
const CheckpointVersion = 1

// CheckpointFile is the checkpoint's file name inside a -checkpoint-dir.
const CheckpointFile = "checkpoint.jsonl"

// CheckpointMeta identifies the campaign a checkpoint belongs to. Resume
// refuses a checkpoint whose meta does not match the current
// configuration — a checkpoint is only valid for the exact campaign that
// wrote it (worker count excluded: resume is worker-count-invariant).
type CheckpointMeta struct {
	// Kind names the campaign flavor (e.g. "bugs").
	Kind string `json:"kind"`
	// Fingerprint digests every result-affecting configuration knob.
	Fingerprint string `json:"fingerprint"`
	// Units is the campaign's total unit count — a structural integrity
	// check against registry or corpus drift.
	Units int `json:"units"`
}

// UnitRecord is one completed unit in a checkpoint.
type UnitRecord struct {
	// Group and Index locate the unit: Index is its position within the
	// group's chain (not the global unit table), so records validate
	// chain continuity on load.
	Group string `json:"group"`
	Index int    `json:"index"`
	// Name and Seed echo the unit table for validation.
	Name string `json:"unit,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// Done records that this unit finished its group early.
	Done bool `json:"done,omitempty"`
	// Err preserves a recorded unit error (seed failed to parse, ...).
	Err string `json:"err,omitempty"`
	// DurNS is the unit's execution wall time, restored into its Outcome
	// so resumed per-group timing stays approximately right.
	DurNS int64 `json:"dur_ns,omitempty"`
	// State is the campaign-layer result (the chained group state plus
	// side-effect deltas), opaque to the engine.
	State json.RawMessage `json:"state,omitempty"`
}

// RestoredUnit is one checkpointed unit handed back to the coordinator:
// the wire record plus its decoded result, which threads into the group
// chain as prev exactly as if the unit had just run.
type RestoredUnit struct {
	Record UnitRecord
	Res    any
}

// CheckpointConfig enables checkpointing on an engine run.
type CheckpointConfig struct {
	// Path is the checkpoint file (atomically replaced on every write).
	Path string
	// Interval is the minimum gap between periodic snapshots; <= 0
	// writes after every unit completion. Independent of Interval, a
	// checkpoint is written once before dispatch and once before Run
	// returns.
	Interval time.Duration
	// Meta identifies the campaign (validated on resume).
	Meta CheckpointMeta
	// Encode serializes a unit's campaign-layer result for its
	// UnitRecord.State.
	Encode func(res any) ([]byte, error)
}

// Checkpoint is a loaded, validated checkpoint document.
type Checkpoint struct {
	Meta CheckpointMeta
	// Metrics is the run-wide telemetry snapshot at write time (nil when
	// the run had telemetry disabled).
	Metrics *telemetry.Snapshot
	// Records are the completed units, in chain order per group.
	Records []UnitRecord
}

// Line shapes. Every line carries "line" naming its kind; kinds unknown
// to this version fail the load (forward compatibility = refuse, never
// guess).
type ckptHeader struct {
	Line string         `json:"line"`
	V    int            `json:"v"`
	Meta CheckpointMeta `json:"meta"`
}

type ckptMetrics struct {
	Line     string              `json:"line"`
	Snapshot *telemetry.Snapshot `json:"snapshot"`
}

type ckptUnit struct {
	Line string `json:"line"`
	UnitRecord
}

type ckptTrailer struct {
	Line  string `json:"line"`
	Units int    `json:"units"`
}

// WriteCheckpoint atomically writes one checkpoint document, returning
// the number of bytes written.
func WriteCheckpoint(path string, meta CheckpointMeta, metrics *telemetry.Snapshot, records []UnitRecord) (int, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // Encode appends the newline JSONL needs
	if err := enc.Encode(ckptHeader{Line: "header", V: CheckpointVersion, Meta: meta}); err != nil {
		return 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if metrics != nil {
		if err := enc.Encode(ckptMetrics{Line: "metrics", Snapshot: metrics}); err != nil {
			return 0, fmt.Errorf("checkpoint %s: %w", path, err)
		}
	}
	for _, rec := range records {
		if err := enc.Encode(ckptUnit{Line: "unit", UnitRecord: rec}); err != nil {
			return 0, fmt.Errorf("checkpoint %s: %w", path, err)
		}
	}
	if err := enc.Encode(ckptTrailer{Line: "trailer", Units: len(records)}); err != nil {
		return 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}

	// Temp file + rename in the same directory: the visible file is
	// always a complete document, even under SIGKILL mid-write.
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		cleanup()
		return 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		cleanup()
		return 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return buf.Len(), nil
}

// LoadCheckpoint reads and fully validates a checkpoint document. Any
// structural defect — unknown version, unknown line kind, missing or
// mismatched trailer, truncated tail line, undecodable JSON — is an
// error: a resume must be exact or not happen at all.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return decodeCheckpoint(path, data)
}

// decodeCheckpoint validates and decodes the bytes of a checkpoint
// document read from path (named in errors only).
func decodeCheckpoint(path string, data []byte) (*Checkpoint, error) {
	fail := func(format string, args ...any) (*Checkpoint, error) {
		return nil, fmt.Errorf("checkpoint %s: %s", path, fmt.Sprintf(format, args...))
	}
	if len(data) == 0 {
		return fail("empty file (interrupted write?)")
	}
	if data[len(data)-1] != '\n' {
		return fail("truncated tail line (file does not end in a newline)")
	}
	lines := bytes.Split(data[:len(data)-1], []byte("\n"))

	// Pass 1: each line must be a JSON object with a known "line" kind.
	kinds := make([]string, len(lines))
	for i, raw := range lines {
		var k struct {
			Line string `json:"line"`
		}
		if err := json.Unmarshal(raw, &k); err != nil {
			if i == len(lines)-1 {
				return fail("truncated tail line: %v", err)
			}
			return fail("line %d: not a JSON object: %v", i+1, err)
		}
		switch k.Line {
		case "header", "metrics", "unit", "trailer":
			kinds[i] = k.Line
		default:
			return fail("line %d: unknown record kind %q (written by a newer version?)", i+1, k.Line)
		}
	}
	if kinds[0] != "header" {
		return fail("first line is %q, want header", kinds[0])
	}
	if last := kinds[len(kinds)-1]; last != "trailer" {
		return fail("missing trailer (last line is %q) — the file is truncated", last)
	}

	var hdr ckptHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return fail("header: %v", err)
	}
	if hdr.V != CheckpointVersion {
		return fail("unsupported checkpoint version %d (this build reads version %d)", hdr.V, CheckpointVersion)
	}

	cp := &Checkpoint{Meta: hdr.Meta}
	for i := 1; i < len(lines)-1; i++ {
		switch kinds[i] {
		case "header":
			return fail("line %d: duplicate header", i+1)
		case "trailer":
			return fail("line %d: trailer before end of file", i+1)
		case "metrics":
			if cp.Metrics != nil {
				return fail("line %d: duplicate metrics record", i+1)
			}
			if len(cp.Records) > 0 {
				return fail("line %d: metrics record after unit records", i+1)
			}
			var m ckptMetrics
			if err := json.Unmarshal(lines[i], &m); err != nil {
				return fail("line %d: metrics: %v", i+1, err)
			}
			cp.Metrics = m.Snapshot
		case "unit":
			var u ckptUnit
			if err := json.Unmarshal(lines[i], &u); err != nil {
				return fail("line %d: unit record: %v", i+1, err)
			}
			cp.Records = append(cp.Records, u.UnitRecord)
		}
	}
	var tr ckptTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		return fail("trailer: %v", err)
	}
	if tr.Units != len(cp.Records) {
		return fail("trailer records %d unit(s) but %d are present — the file is truncated or corrupt", tr.Units, len(cp.Records))
	}
	return cp, nil
}
