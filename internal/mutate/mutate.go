// Package mutate implements alive-mutate's mutation engine: the nine
// structure-aware mutation operators of paper §IV, driven by the central
// primitive "for a given program point, randomly generate a dominating SSA
// value with compatible type" (§IV-F).
//
// Mutants are always valid IR — the paper's headline contrast with
// structure-blind mutators like Radamsa (§II) — and every mutant is
// reproducible from its logged PRNG seed (§III-E).
package mutate

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/rng"
)

// Op identifies one mutation operator (paper §IV-A..H).
type Op int

// The mutation operators.
const (
	OpAttributes Op = iota // §IV-A: toggle function/parameter attributes
	OpInline               // §IV-B: inline a function other than the callee
	OpRemoveCall           // §IV-C: remove a void call
	OpShuffle              // §IV-D: shuffle independent instructions
	OpArith                // §IV-E: mutate arithmetic (op/operands/flags/constants)
	OpUses                 // §IV-F: replace an SSA use with a random dominating value
	OpMove                 // §IV-G: move an instruction, repairing uses
	OpBitwidth             // §IV-H: change bitwidth along a use-tree path
	numOps
)

var opNames = map[Op]string{
	OpAttributes: "attributes",
	OpInline:     "inline",
	OpRemoveCall: "remove-call",
	OpShuffle:    "shuffle",
	OpArith:      "arith",
	OpUses:       "uses",
	OpMove:       "move",
	OpBitwidth:   "bitwidth",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// AllOps lists every operator.
var AllOps = []Op{OpAttributes, OpInline, OpRemoveCall, OpShuffle, OpArith, OpUses, OpMove, OpBitwidth}

// TraceStep records one applied mutation operator together with the site
// it touched — the operand/instruction-level metadata a bug report needs
// to explain *how* a mutant diverged from its seed.
type TraceStep struct {
	Op   string `json:"op"`
	Func string `json:"func"`
	Site string `json:"site,omitempty"`
}

// Trace is the mutation lineage of one mutant: the ordered operator
// applications that produced it from the preprocessed seed. Because
// mutants are pure functions of their seed, a trace can be regenerated at
// any time with MutateTraced — the fuzzing loop only materializes traces
// for findings, so the hot path pays nothing.
type Trace struct {
	Seed  uint64      `json:"seed"`
	Steps []TraceStep `json:"steps"`
}

// TraceID renders a mutant seed as the stable identifier that joins a
// finding, its journal bug_found event, and its triage bundle.
func TraceID(seed uint64) string { return fmt.Sprintf("m%016x", seed) }

// ID returns the trace's join identifier.
func (t *Trace) ID() string { return TraceID(t.Seed) }

// Config controls the engine.
type Config struct {
	// Ops enables a subset of operators (nil = all).
	Ops []Op
	// MaxMutationsPerFunction bounds how many operators are applied in
	// sequence to each function (§IV-I); 0 means the default of 3.
	MaxMutationsPerFunction int
	// ObserveOp, when non-nil, is called once per successfully applied
	// operator. The fuzzing loop wires this to per-operator telemetry
	// counters; it must not influence mutation (it sees the draw *after*
	// the PRNG has been consumed), so determinism is unaffected.
	ObserveOp func(op Op)
}

// Mutator owns a preprocessed original module and produces mutants. The
// preprocessing (dominator trees, shuffle ranges, constant scans) runs
// once, as in paper §III-A, so the mutation loop stays hot.
type Mutator struct {
	Orig  *ir.Module
	cfg   Config
	infos map[string]*analysis.FuncInfo
	ops   []Op
}

// New preprocesses the module for mutation. Functions that should not be
// mutated (declarations) are skipped automatically.
func New(m *ir.Module, cfg Config) *Mutator {
	mu := &Mutator{Orig: m, cfg: cfg, infos: make(map[string]*analysis.FuncInfo)}
	for _, f := range m.Defs() {
		mu.infos[f.Name] = analysis.Preprocess(f)
	}
	mu.ops = cfg.Ops
	if len(mu.ops) == 0 {
		mu.ops = AllOps
	}
	return mu
}

// Mutate produces a fresh mutant of the whole module from the given seed.
// Equal seeds yield identical mutants.
func (mu *Mutator) Mutate(seed uint64) *ir.Module {
	m, _ := mu.mutate(seed, nil)
	return m
}

// MutateTraced produces the same mutant Mutate would for the seed, plus
// its lineage trace. The PRNG consumption is identical in both entry
// points, so tracing never perturbs which mutant a seed denotes.
func (mu *Mutator) MutateTraced(seed uint64) (*ir.Module, *Trace) {
	tr := &Trace{Seed: seed}
	m, _ := mu.mutate(seed, tr)
	return m, tr
}

func (mu *Mutator) mutate(seed uint64, tr *Trace) (*ir.Module, *Trace) {
	r := rng.New(seed)
	clone := mu.Orig.Clone()
	for _, f := range clone.Defs() {
		info, ok := mu.infos[f.Name]
		if !ok {
			continue
		}
		mu.mutateFunction(r, clone, f, info, tr)
	}
	return clone, tr
}

// mutateFunction applies 1..MaxMutationsPerFunction operators in sequence
// (paper §IV-I).
func (mu *Mutator) mutateFunction(r *rng.Rand, mod *ir.Module, f *ir.Function, info *analysis.FuncInfo, tr *Trace) {
	maxN := mu.cfg.MaxMutationsPerFunction
	if maxN == 0 {
		maxN = 3
	}
	n := 1 + r.Intn(maxN)
	ov := analysis.NewOverlay(info, f)
	applied := 0
	// Try up to 4n operator draws; operators that find no applicable site
	// report false and cost nothing.
	for attempt := 0; attempt < 4*n && applied < n; attempt++ {
		op := mu.ops[r.Intn(len(mu.ops))]
		if site, ok := mu.apply(op, r, mod, f, ov, tr != nil); ok {
			applied++
			ov.Invalidate()
			if tr != nil {
				tr.Steps = append(tr.Steps, TraceStep{Op: op.String(), Func: f.Name, Site: site})
			}
			if mu.cfg.ObserveOp != nil {
				mu.cfg.ObserveOp(op)
			}
		}
	}
}

// apply runs one operator; on success with traced set, the returned site
// string describes the program point it touched (lineage metadata — it
// never feeds back into mutation decisions).
func (mu *Mutator) apply(op Op, r *rng.Rand, mod *ir.Module, f *ir.Function, ov *analysis.Overlay, traced bool) (string, bool) {
	switch op {
	case OpAttributes:
		return mutateAttributes(r, f, traced)
	case OpInline:
		return mutateInline(r, mod, f, traced)
	case OpRemoveCall:
		return mutateRemoveCall(r, f, traced)
	case OpShuffle:
		return mutateShuffle(r, ov, traced)
	case OpArith:
		return mutateArith(r, f, ov, traced)
	case OpUses:
		return mutateUses(r, f, ov, traced)
	case OpMove:
		return mutateMove(r, f, ov, traced)
	case OpBitwidth:
		return mutateBitwidth(r, f, traced)
	default:
		return "", false
	}
}
