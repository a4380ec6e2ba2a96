package tv

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mutate"
	"repro/internal/opt"
	"repro/internal/parser"
)

// exhaustiveMaxInputs caps the enumerated input space of one pair.
const exhaustiveMaxInputs = 1 << 16

// exhaustiveInputs returns every argument vector of f — each integer
// parameter takes all 2^w values plus poison — or nil when f is outside
// the oracle's fragment: a memory op, a call, a pointer or wide
// parameter, or more than exhaustiveMaxInputs vectors in total.
func exhaustiveInputs(f *ir.Function) [][]interp.Value {
	for _, in := range f.Instrs() {
		switch in.Op {
		case ir.OpAlloca, ir.OpLoad, ir.OpStore, ir.OpGEP, ir.OpCall:
			return nil
		}
	}
	domains := make([][]interp.Value, len(f.Params))
	total := 1
	for i, p := range f.Params {
		w, ok := ir.IsInt(p.Ty)
		if !ok || w > 16 {
			return nil
		}
		n := 1<<uint(w) + 1
		if total *= n; total > exhaustiveMaxInputs {
			return nil
		}
		domains[i] = make([]interp.Value, 0, n)
		for v := uint64(0); v < 1<<uint(w); v++ {
			domains[i] = append(domains[i], interp.Value{Bits: v})
		}
		domains[i] = append(domains[i], interp.Value{Poison: true})
	}
	vecs := [][]interp.Value{nil}
	for _, d := range domains {
		next := make([][]interp.Value, 0, len(vecs)*len(d))
		for _, prefix := range vecs {
			for _, v := range d {
				next = append(next, append(append([]interp.Value(nil), prefix...), v))
			}
		}
		vecs = next
	}
	return vecs
}

// TestExhaustiveEnumerationOracle checks the solver stack against
// exhaustive execution. Each pair is a mutant of a targeted seed test
// against its optimized form (compiled with the seed's miscompilation
// bugs enabled) or against the unmutated function; pairs whose whole
// input space, poison included, fits in 2^16 vectors run on every input
// through the interpreter, which shares no code with smt, sat or
// semantics. A Valid verdict must see no input diverge and an Invalid
// one at least one. The interpreter fixes each freeze of poison to one
// value where the encoding ranges over all of them, so an Invalid pair
// with a freeze may need a choice the run did not make: such pairs check
// only the Valid direction. Both the plain options and the campaign
// cascade at fuzz-campaign's default budget are checked; the cascade's
// tight budget is what engages the incremental session and the
// portfolio.
func TestExhaustiveEnumerationOracle(t *testing.T) {
	type pair struct {
		seed     string
		mod      *ir.Module
		src, tgt *ir.Function
		inputs   [][]interp.Value
		freeze   bool
	}
	var pairs []pair
	for _, test := range corpus.TargetedTests() {
		mod, err := parser.Parse(test.Text)
		if err != nil {
			t.Fatalf("%s: %v", test.Name, err)
		}
		bugs := &opt.BugSet{}
		for _, info := range opt.Registry {
			if info.Kind == opt.Miscompilation && test.Near(info.Issue) {
				bugs.Enable(info.ID)
			}
		}
		mu := mutate.New(mod, mutate.Config{})
		for i := uint64(0); i < 40; i++ {
			mutant := mu.Mutate(i)
			optimized := mutant.Clone()
			ok := func() (ok bool) {
				defer func() { ok = recover() == nil }() // seeded crashes are not under test
				ctx := opt.NewContext(optimized)
				ctx.Bugs = bugs
				opt.RunPasses(ctx, opt.O2())
				return true
			}()
			for _, fn := range mutant.Defs() {
				inputs := exhaustiveInputs(fn)
				if inputs == nil {
					continue
				}
				if orig := mod.FuncByName(fn.Name); orig.String() != fn.String() {
					pairs = append(pairs, pair{test.Name, mutant, orig, fn, inputs, hasFreeze(orig, fn)})
				}
				if tgt := optimized.FuncByName(fn.Name); ok && tgt != nil && tgt.String() != fn.String() {
					if exhaustiveInputs(tgt) != nil {
						pairs = append(pairs, pair{test.Name, optimized, fn, tgt, inputs, hasFreeze(fn, tgt)})
					}
				}
			}
		}
	}

	for _, cfg := range []struct {
		name string
		opts func() Options
	}{
		{"plain", func() Options { return Options{ConflictBudget: 4000} }},
		{"cascade", func() Options {
			// campaign.BugConfig's defaults at fuzz-campaign's -tvbudget.
			return Options{ConflictBudget: 4000, Incremental: true, Static: true, Portfolio: 3,
				Cache: NewCache()}
		}},
	} {
		opts := cfg.opts()
		verdicts := map[Verdict]int{}
		session, validOnly := 0, 0
		for _, p := range pairs {
			r := Verify(p.mod, p.src, p.tgt, opts)
			verdicts[r.Verdict]++
			if r.AssumptionQueries > 0 {
				session++ // the incremental session proved it
			}
			if r.Verdict == Invalid && p.freeze {
				validOnly++
			}
			if r.Verdict != Valid && (r.Verdict != Invalid || p.freeze) {
				continue
			}
			diverged := -1
			for i, args := range p.inputs {
				sr, tr, errS, errT := interp.DiffRun(p.mod, p.mod, p.src, p.tgt, args, 0)
				if errS != nil || errT != nil {
					t.Fatalf("%s: %s @%s: interpreter: %v / %v", cfg.name, p.seed, p.src.Name, errS, errT)
				}
				if div, _ := interp.ClassifyRefinement(sr, tr); div != interp.DivergeNone {
					diverged = i
					break
				}
			}
			switch {
			case r.Verdict == Valid && diverged >= 0:
				t.Errorf("%s: %s: Valid, but input %v diverges\nsrc:\n%s\ntgt:\n%s",
					cfg.name, p.seed, p.inputs[diverged], p.src, p.tgt)
			case r.Verdict == Invalid && diverged < 0:
				t.Errorf("%s: %s: Invalid (%s), but no input diverges\nsrc:\n%s\ntgt:\n%s",
					cfg.name, p.seed, r.Reason, p.src, p.tgt)
			}
		}
		if verdicts[Valid] == 0 || verdicts[Invalid]-validOnly == 0 {
			t.Errorf("%s: verdicts %v over %d pairs; the oracle needs both Valid and Invalid pairs", cfg.name, verdicts, len(pairs))
		}
		if cfg.name == "cascade" && session == 0 {
			t.Errorf("cascade: the incremental session proved no pair, so it went unchecked")
		}
		t.Logf("%s: %d pairs, verdicts %v (%d Invalid with a freeze, not enumerated), %d proved by the session",
			cfg.name, len(pairs), verdicts, validOnly, session)
	}
}

func hasFreeze(fns ...*ir.Function) bool {
	for _, f := range fns {
		for _, in := range f.Instrs() {
			if in.Op == ir.OpFreeze {
				return true
			}
		}
	}
	return false
}
