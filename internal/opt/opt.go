// Package opt is the compiler middle-end that alive-mutate fuzzes: a pass
// manager and a set of scalar optimization passes modelled on LLVM's
// (InstSimplify, InstCombine, constant folding, DCE, GVN, SimplifyCFG,
// mem2reg, and a narrow-integer promotion pass standing in for backend
// type legalization).
//
// The package doubles as the experiment substrate for the paper's Table I:
// a registry of seeded defects (bugs.go) reproduces the taxonomy of the 33
// LLVM bugs the paper reports — miscompilations flagged by translation
// validation and crashes (Go panics standing in for LLVM assertion
// failures). All defects are off by default; the fuzzing-campaign harness
// switches them on one at a time.
package opt

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// Context carries per-pipeline state into passes.
type Context struct {
	Mod  *ir.Module
	Bugs *BugSet
	// Stats counts rule applications by name (diagnostics and tests).
	Stats map[string]int
	// ObservePass, when non-nil, receives every pass execution's name and
	// duration (one call per pass per function). The fuzzing loop wires
	// this to the telemetry layer's per-pass histograms; it is nil — and
	// costs nothing — in ordinary compilation.
	ObservePass func(pass string, d time.Duration)
	// DisableAnalysis turns off the dataflow-analysis-backed folds
	// (known bits, ranges, demanded bits). Passes then behave exactly as
	// they did before the analysis layer existed.
	DisableAnalysis bool

	// facts caches the per-function analysis provider. Invalidated (not
	// discarded) whenever a pass mutates the function.
	facts map[*ir.Function]*analysis.Facts
}

// NewContext builds a context with no seeded bugs.
func NewContext(mod *ir.Module) *Context {
	return &Context{Mod: mod, Bugs: &BugSet{}, Stats: make(map[string]int)}
}

// FactsFor returns the cached analysis-fact provider for f, or nil when
// analysis is disabled. Callers must treat the provider as stale after
// any mutation of f and call InvalidateFacts.
func (c *Context) FactsFor(f *ir.Function) *analysis.Facts {
	if c.DisableAnalysis {
		return nil
	}
	if c.facts == nil {
		c.facts = make(map[*ir.Function]*analysis.Facts)
	}
	fa := c.facts[f]
	if fa == nil {
		fa = analysis.NewFacts(f)
		c.facts[f] = fa
	}
	return fa
}

// InvalidateFacts drops every cached fact about f. Every pass (and every
// in-place rewrite inside a pass) that mutates f must call this before
// the next fact query.
func (c *Context) InvalidateFacts(f *ir.Function) {
	if fa := c.facts[f]; fa != nil {
		fa.Invalidate()
	}
}

func (c *Context) stat(name string) {
	if c.Stats != nil {
		c.Stats[name]++
	}
}

// Pass is one function-level transformation.
type Pass interface {
	Name() string
	// Run transforms f, returning whether anything changed.
	Run(ctx *Context, f *ir.Function) bool
}

// RunPasses applies the pipeline to every definition in the module. With
// ctx.ObservePass set, each pass execution is individually timed.
func RunPasses(ctx *Context, passes []Pass) {
	for _, f := range ctx.Mod.Defs() {
		for _, p := range passes {
			var changed bool
			if ctx.ObservePass == nil {
				changed = p.Run(ctx, f)
			} else {
				start := time.Now() // vet:determinism — ObservePass timing, telemetry only
				changed = p.Run(ctx, f)
				ctx.ObservePass(p.Name(), time.Since(start))
			}
			if changed {
				ctx.InvalidateFacts(f)
			}
		}
	}
}

// O1 is the light pipeline: simplification, folding and cleanup.
func O1() []Pass {
	return []Pass{
		&ConstantFoldPass{},
		&InstSimplifyPass{},
		&DCEPass{},
		&SimplifyCFGPass{},
	}
}

// O2 is the full pipeline, iterated twice like LLVM's, with the heavier
// passes included.
func O2() []Pass {
	one := []Pass{
		&Mem2RegPass{},
		&ConstantFoldPass{},
		&InstSimplifyPass{},
		&InstCombinePass{},
		&GVNPass{},
		&DSEPass{},
		&DCEPass{},
		&SimplifyCFGPass{},
		&AlignAssumePass{},
		&PromotePass{},
		&InstCombinePass{},
		&DCEPass{},
	}
	return append(one, one...)
}

// ByName resolves a comma-separated pass specification ("instcombine,dce",
// "O2", ...), mirroring the paper's -passes= command line option (§III-C).
func ByName(spec string) ([]Pass, error) {
	var out []Pass
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "":
			continue
		case "o1", "-o1":
			out = append(out, O1()...)
		case "o2", "-o2":
			out = append(out, O2()...)
		case "constfold":
			out = append(out, &ConstantFoldPass{})
		case "instsimplify":
			out = append(out, &InstSimplifyPass{})
		case "instcombine":
			out = append(out, &InstCombinePass{})
		case "dce":
			out = append(out, &DCEPass{})
		case "gvn", "newgvn":
			out = append(out, &GVNPass{})
		case "simplifycfg":
			out = append(out, &SimplifyCFGPass{})
		case "mem2reg", "sroa":
			out = append(out, &Mem2RegPass{})
		case "dse":
			out = append(out, &DSEPass{})
		case "promote":
			out = append(out, &PromotePass{})
		case "alignassume":
			out = append(out, &AlignAssumePass{})
		default:
			return nil, fmt.Errorf("opt: unknown pass %q", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("opt: empty pass specification %q", spec)
	}
	return out, nil
}

// --- shared pass utilities ---

// eraseDeadInstr removes in from its block if it has no users and no side
// effects. Returns true if erased.
func eraseDeadInstr(f *ir.Function, in *ir.Instr) bool {
	if hasSideEffects(nil, in) || ir.IsVoid(in.Ty) {
		return false
	}
	if f.HasUsers(in) {
		return false
	}
	b := in.Parent()
	if b == nil {
		return false
	}
	idx := b.IndexOf(in)
	if idx < 0 {
		return false
	}
	b.Remove(idx)
	return true
}

// hasSideEffects reports whether removing the instruction could change
// observable behaviour (memory writes, calls, terminators, possible UB).
func hasSideEffects(mod *ir.Module, in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpRet, ir.OpBr, ir.OpCondBr, ir.OpUnreachable:
		return true
	case ir.OpCall:
		if kind, ok := in.IsIntrinsicCall(); ok {
			// Math intrinsics are pure; assume constrains behaviour.
			return kind == ir.IntrinsicAssume
		}
		if mod != nil {
			if decl := mod.FuncByName(in.Callee); decl != nil {
				a := decl.Attrs
				if (a.Readnone || a.Readonly) && a.Willreturn && a.Nounwind {
					return false
				}
			}
		}
		return true
	case ir.OpLoad:
		// A load can trap (null); removing one whose result is unused is
		// fine only if it is guaranteed dereferenceable. Stay conservative
		// except for loads from allocas.
		if def, ok := in.Args[0].(*ir.Instr); ok && def.Op == ir.OpAlloca {
			return false
		}
		return true
	}
	if in.Op.IsDivRem() {
		// Division can trap on a zero divisor.
		if c, ok := in.Args[1].(*ir.Const); ok && !c.IsZero() {
			return false
		}
		return true
	}
	return false
}

// replaceAndName substitutes old's uses with new across f.
func replaceAllUses(f *ir.Function, old *ir.Instr, new ir.Value) {
	f.ReplaceUses(old, new)
}

// constOf returns the operand as an integer constant if it is one.
func constOf(v ir.Value) (*ir.Const, bool) {
	c, ok := v.(*ir.Const)
	return c, ok
}

// isPoisonVal reports whether v is the literal poison constant.
func isPoisonVal(v ir.Value) bool {
	_, ok := v.(*ir.Poison)
	return ok
}
