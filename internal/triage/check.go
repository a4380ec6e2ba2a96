package triage

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/tv"
)

// Check is the re-executable bug oracle for one signature: everything
// needed to decide "does this module still exhibit that bug?". The
// shrinker runs it on every reduction candidate; triage-replay runs it on
// a bundle's modules to confirm the report.
type Check struct {
	Passes    string // optimization pipeline spec, e.g. "O2"
	Issue     int    // seeded issue enabled during the campaign (0 = none)
	TVBudget  int64  // SAT conflict budget for refinement queries
	Func      string // function exhibiting a miscompilation ("" for crashes)
	Kind      string // KindCrash or KindMiscompile
	Signature string // the signature the bug must reproduce
}

// BugByIssue resolves a paper issue number to its seeded-bug registry ID.
func BugByIssue(issue int) (opt.BugID, bool) {
	for _, e := range opt.Registry {
		if e.Issue == issue {
			return e.ID, true
		}
	}
	return 0, false
}

// optimize runs the check's passes, with its seeded bug enabled, on a
// clone of mod. panicMsg is the optimizer's panic, if it panicked.
func (c *Check) optimize(mod *ir.Module) (optimized *ir.Module, panicMsg string, err error) {
	passes, err := opt.ByName(c.Passes)
	if err != nil {
		return nil, "", err
	}
	optimized = mod.Clone()
	ctx := opt.NewContext(optimized)
	if c.Issue != 0 {
		id, ok := BugByIssue(c.Issue)
		if !ok {
			return nil, "", fmt.Errorf("triage: no seeded bug for issue %d", c.Issue)
		}
		ctx.Bugs = (&opt.BugSet{}).Enable(id)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicMsg = fmt.Sprint(r)
			}
		}()
		opt.RunPasses(ctx, passes)
	}()
	return optimized, panicMsg, nil
}

// Fires reports whether mod exhibits the check's bug with the expected
// signature. sig is the signature actually observed ("" when nothing
// fired at all). mod is not modified: optimization runs on a clone.
func (c *Check) Fires(mod *ir.Module) (fired bool, sig string, err error) {
	optimized, panicMsg, err := c.optimize(mod)
	if err != nil {
		return false, "", err
	}
	if panicMsg != "" {
		sig = CrashSignature(c.Passes, panicMsg)
		return c.Kind == KindCrash && sig == c.Signature, sig, nil
	}
	if c.Kind == KindCrash {
		return false, "", nil
	}

	src := mod.FuncByName(c.Func)
	tgt := optimized.FuncByName(c.Func)
	if src == nil || tgt == nil {
		return false, "", nil
	}
	if src.String() == tgt.String() {
		return false, "", nil // optimizer left it alone: refinement trivially holds
	}
	r := tv.Verify(mod, src, tgt, tv.Options{ConflictBudget: c.TVBudget})
	if r.Verdict != tv.Invalid {
		return false, "", nil
	}
	divergence := ""
	if r.CEX != nil {
		w := r.CEX.Concretize(mod, optimized, src, tgt)
		divergence = w.Divergence
	}
	sig = MiscompileSignature(c.Passes, c.Issue, c.Func, divergence)
	return sig == c.Signature, sig, nil
}

// Keep is the shrinker predicate: the candidate must still be valid IR
// and must still fire the bug with the same signature. Invalid IR is
// rejected up front so an optimizer panic on a malformed candidate can
// never masquerade as the bug under reduction.
func (c *Check) Keep(mod *ir.Module) bool {
	if err := mod.Verify(); err != nil {
		return false
	}
	fired, _, err := c.Fires(mod)
	return err == nil && fired
}
