package triage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/ir"
	"repro/internal/tv"
)

// decodeWitness parses a bundle's counterexample.json. Besides the JSON
// itself it rejects what no campaign writes: unknown fields or trailing
// data, an unknown divergence class, and a confirmed flag that disagrees
// with the class (tv.Counterexample.Concretize confirms exactly the
// witnesses that diverge). Check.witnessHolds checks the inputs.
func decodeWitness(data []byte) (*tv.Witness, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w tv.Witness
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("triage: %s: %w", CEXFile, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("triage: %s: trailing data after the witness", CEXFile)
	}
	switch w.Divergence {
	case tv.DivergeTargetUB, tv.DivergeRetPoison, tv.DivergeRetValue, tv.DivergeNone:
	default:
		return nil, fmt.Errorf("triage: %s: unknown divergence class %q", CEXFile, w.Divergence)
	}
	if w.Confirmed != (w.Divergence != tv.DivergeNone) {
		return nil, fmt.Errorf("triage: %s: confirmed=%v with divergence %q", CEXFile, w.Confirmed, w.Divergence)
	}
	return &w, nil
}

// witnessHolds re-executes a decoded witness's inputs on the check's
// function in mod, before and after the check's passes, and reports
// whether a confirmed witness still shows its recorded divergence class;
// an unconfirmed one holds once its inputs re-execute. It is an error
// for the inputs not to be the function's parameters, in order and by
// name, each "poison" or a decimal value that fits its parameter's width.
func (c *Check) witnessHolds(mod *ir.Module, w *tv.Witness) (bool, error) {
	optimized, panicMsg, err := c.optimize(mod)
	if err != nil || panicMsg != "" {
		return false, err
	}
	src, tgt := mod.FuncByName(c.Func), optimized.FuncByName(c.Func)
	if src == nil || tgt == nil {
		return false, fmt.Errorf("triage: the module has no function @%s", c.Func)
	}
	if len(w.Inputs) != len(src.Params) {
		return false, fmt.Errorf("triage: %s has %d inputs, @%s %d parameters", CEXFile, len(w.Inputs), src.Name, len(src.Params))
	}
	cex := &tv.Counterexample{Inputs: map[string]uint64{}, Poison: map[string]bool{}}
	for i, p := range src.Params {
		in := w.Inputs[i]
		if in.Name != p.Nm {
			return false, fmt.Errorf("triage: %s: input %d is %q, parameter %d of @%s is %q", CEXFile, i, in.Name, i, src.Name, p.Nm)
		}
		if in.Value == "poison" {
			cex.Poison[p.Nm] = true
			continue
		}
		v, err := strconv.ParseUint(in.Value, 10, 64)
		if bits, ok := ir.IsInt(p.Ty); err != nil || ok && bits < 64 && v>>bits != 0 {
			return false, fmt.Errorf("triage: %s: input %s=%q does not fit %s", CEXFile, p.Nm, in.Value, p.Ty)
		}
		cex.Inputs[p.Nm] = v
	}
	got := cex.Concretize(mod, optimized, src, tgt)
	return !w.Confirmed || got.Divergence == w.Divergence, nil
}
