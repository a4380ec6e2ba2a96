package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/apint"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/rng"
)

// The differential soundness harness: generate random modules with the
// corpus generator, compute every claim the analysis layer makes about
// them (known bits, guard-refined ranges, demanded bits), then execute
// the functions concretely and assert the claims hold on every observed
// value. Facts are contracts about non-poison values of UB-free runs, so
// poison observations and UB executions are vacuous.
//
// Demanded bits make a stronger, whole-run claim — bits outside the
// demanded mask never influence observable behaviour — which is checked
// by re-running with those bits flipped (via the interpreter's Override
// hook) and comparing the final result bit-for-bit.

// claim is everything the analysis asserts about one instruction.
type claim struct {
	in       *ir.Instr
	width    int
	known    analysis.KnownBits
	rng      analysis.Range
	demanded uint64
}

// soundnessModules is the number of random modules every run checks
// (the acceptance bar), `make race` included; only an explicit
// `go test -short` checks 1000 instead.
const soundnessModules = 10000

func TestAnalysisSoundnessDifferential(t *testing.T) {
	n := soundnessModules
	if testing.Short() {
		n = 1000
	}
	stats := struct{ funcs, runs, ubRuns, valueChecks, demandedRuns int }{}
	for seed := 0; seed < n; seed++ {
		mod := corpus.Generate(uint64(seed)*0x9e37+1, 1)
		r := rng.New(uint64(seed) ^ 0x5bd1e995)
		for _, f := range mod.Defs() {
			stats.funcs++
			checkFunctionSoundness(t, mod, f, r, &stats.runs, &stats.ubRuns, &stats.valueChecks, &stats.demandedRuns)
			if t.Failed() {
				t.Fatalf("soundness violation in module seed %d:\n%s", seed, f)
			}
		}
	}
	t.Logf("checked %d modules / %d functions: %d runs (%d UB), %d value claims, %d demanded-bits re-runs",
		n, stats.funcs, stats.runs, stats.ubRuns, stats.valueChecks, stats.demandedRuns)
}

func checkFunctionSoundness(t *testing.T, mod *ir.Module, f *ir.Function, r *rng.Rand,
	runs, ubRuns, valueChecks, demandedRuns *int) {
	fa := analysis.NewFacts(f)

	// Gather every claim up front. Guard-refined ranges are queried at the
	// defining block: on any concrete path the guards dominating it have
	// executed (and assumes held, else the run was UB) by the time the
	// value exists. The corpus generator emits loop-free functions only;
	// keep the harness honest about that precondition.
	if f.HasLoop() {
		t.Errorf("corpus generated a loop in @%s; harness expects loop-free functions", f.Name)
		return
	}
	var claims []claim
	claimOf := map[*ir.Instr]int{}
	f.ForEachInstr(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		w, isInt := ir.IsInt(in.Ty)
		if !isInt {
			return true
		}
		c := claim{
			in:       in,
			width:    w,
			known:    fa.Known(in),
			rng:      fa.RangeOf(in, in.Parent()),
			demanded: fa.Demanded(in),
		}
		claimOf[in] = len(claims)
		claims = append(claims, c)
		return true
	})

	const trials = 3
	for trial := 0; trial < trials; trial++ {
		args := randomArgs(r, f, trial)
		oracle := &interp.HashOracle{Seed: uint64(trial)*0x9e3779b9 + 7}

		// Baseline run, observing every integer definition.
		observed := make([]interp.Value, len(claims))
		seen := make([]bool, len(claims))
		in := &interp.Interp{Mod: mod, Oracle: oracle}
		in.OnValue = func(instr *ir.Instr, v interp.Value) {
			if i, ok := claimOf[instr]; ok {
				observed[i], seen[i] = v, true
			}
		}
		base, err := in.Run(f, args)
		if err != nil {
			return // unsupported construct: no claims to discharge
		}
		*runs++
		if base.UB {
			*ubRuns++
			continue // claims are vacuous on UB executions
		}

		for i, c := range claims {
			if !seen[i] || observed[i].Poison {
				continue // unexecuted or poison: vacuous
			}
			v := observed[i].Bits & apint.Mask(c.width)
			*valueChecks++
			if v&c.known.Zeros != 0 || (^v)&c.known.Ones != 0 {
				t.Errorf("known-bits violation: %%%s = %#x contradicts zeros=%#x ones=%#x (args %v)",
					c.in.Nm, v, c.known.Zeros, c.known.Ones, args)
			}
			if !c.rng.Contains(v) {
				t.Errorf("range violation: %%%s = %#x outside %s (args %v)",
					c.in.Nm, v, c.rng, args)
			}
		}
		if t.Failed() {
			return
		}

		// Demanded bits: flip the claimed-dead bits of one instruction per
		// re-run; the observable result must not move. Skip instructions
		// whose every bit is demanded (nothing to flip).
		for i, c := range claims {
			dead := ^c.demanded & apint.Mask(c.width)
			if dead == 0 || !seen[i] || observed[i].Poison {
				continue
			}
			target := c.in
			flipped := &interp.Interp{Mod: mod, Oracle: oracle}
			flipped.Override = func(instr *ir.Instr, v interp.Value) interp.Value {
				if instr == target && !v.Poison {
					v.Bits ^= dead
				}
				return v
			}
			got, err := flipped.Run(f, args)
			if err != nil {
				continue
			}
			*demandedRuns++
			if !interp.ObservablyEqual(base, got) {
				t.Errorf("demanded-bits violation: flipping dead bits %#x of %%%s changed the result: base=%+v got=%+v (args %v)",
					dead, target.Nm, base, got, args)
				return
			}
		}
	}
}

// randomArgs builds one argument vector for f: corner values on the first
// trial, random afterwards. Pointer arguments get 8-aligned nonzero
// addresses in the external provenance.
func randomArgs(r *rng.Rand, f *ir.Function, trial int) []interp.Value {
	args := make([]interp.Value, len(f.Params))
	for i, p := range f.Params {
		if ir.IsPtr(p.Ty) {
			args[i] = interp.Value{Bits: (8 + uint64(r.Intn(1<<12))*8)}
			continue
		}
		w, _ := ir.IsInt(p.Ty)
		m := apint.Mask(w)
		if trial == 0 {
			corners := []uint64{0, 1, m, m >> 1, (m >> 1) + 1}
			args[i] = interp.Value{Bits: corners[r.Intn(len(corners))]}
		} else {
			args[i] = interp.Value{Bits: r.Uint64() & m}
		}
	}
	return args
}
