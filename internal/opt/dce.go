package opt

import (
	"repro/internal/ir"
)

// DCEPass removes instructions whose results are unused and whose removal
// cannot change observable behaviour, including calls to functions whose
// attributes make them removable (readnone/readonly + willreturn +
// nounwind), the legality condition the translation validator enforces.
type DCEPass struct{}

// Name implements Pass.
func (*DCEPass) Name() string { return "dce" }

// Run implements Pass.
func (p *DCEPass) Run(ctx *Context, f *ir.Function) bool {
	changed := false
	for {
		again := false
		// Iterate bottom-up per block so use-chains die in one sweep.
		for _, b := range f.Blocks {
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := b.Instrs[i]

				// Seeded crash 59757: the pass consults a built-in
				// signature table; @printf's entry is wrong, so any printf
				// whose actual signature disagrees trips an assertion.
				if ctx.Bugs.On(Bug59757PrintfSignature) && in.Op == ir.OpCall && in.Callee == "printf" {
					bad := len(in.Sig.Params) == 0 || !ir.IsPtr(in.Sig.Params[0]) ||
						!ir.TypesEqual(in.Sig.Ret, ir.I32)
					if bad {
						crash(Bug59757PrintfSignature, "printf signature mismatch: %s", in.Sig.String())
					}
				}

				// Seeded crash 64661: scanning for movable initializing
				// stores asserts the stored value is a ConstantInt; a
				// store of poison violates the assertion.
				if ctx.Bugs.On(Bug64661MoveAutoInit) && in.Op == ir.OpStore && isPoisonVal(in.Args[0]) {
					crash(Bug64661MoveAutoInit, "auto-init store of poison: %s", in.String())
				}

				if ir.IsVoid(in.Ty) {
					// Void instructions die only if they are removable
					// calls.
					if in.Op == ir.OpCall && !hasSideEffects(ctx.Mod, in) {
						b.Remove(i)
						ctx.stat("dce-call")
						again, changed = true, true
					}
					continue
				}
				if hasSideEffects(ctx.Mod, in) {
					continue
				}
				if !f.HasUsers(in) {
					b.Remove(i)
					ctx.stat("dce")
					again, changed = true, true
				}
			}
		}
		if !again {
			return changed
		}
	}
}
