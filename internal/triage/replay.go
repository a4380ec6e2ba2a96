package triage

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/tv"
)

// ReplayResult reports what re-executing one bundle established.
type ReplayResult struct {
	Signature string
	// ShrunkFires / MutantFires: the bundle's reduced and original mutants
	// still trigger the bug with the recorded signature.
	ShrunkFires bool
	MutantFires bool
	// RegenMatches: re-deriving the mutant from seed.ll and the logged
	// PRNG seed reproduces mutant.ll byte-for-byte (the §III-E
	// repeatability claim, checked end to end through parse → preprocess →
	// mutate).
	RegenMatches bool
	// WitnessHolds: the recorded counterexample's inputs, re-executed on
	// the mutant's function before and after the passes, show the
	// recorded divergence class when the witness says it was confirmed.
	// A crash bundle has no witness, and holds trivially.
	WitnessHolds bool
	// ShrunkInstrs/MutantInstrs re-measured at replay time.
	ShrunkInstrs int
	MutantInstrs int
}

// OK reports whether the bundle fully replays: both modules fire, the
// mutant is regenerable from its seed, and its witness holds.
func (r *ReplayResult) OK() bool {
	return r.ShrunkFires && r.MutantFires && r.RegenMatches && r.WitnessHolds
}

// Replay re-executes a reproducer bundle and checks that the bug still
// fires. It is the assertion behind cmd/triage-replay and the CI
// triage-smoke job: a bundle that stops replaying is a regression in the
// optimizer, the validator, or the bundle format — all worth failing on.
func Replay(bundleDir string) (*ReplayResult, error) {
	man, err := LoadManifest(bundleDir)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{Signature: man.Signature}
	check := &Check{
		Passes:    man.Passes,
		Issue:     man.Issue,
		TVBudget:  man.TVBudget,
		Func:      man.Func,
		Kind:      man.Kind,
		Signature: man.Signature,
	}

	shrunk, err := parseFile(bundleDir, ShrunkFile)
	if err != nil {
		return nil, err
	}
	res.ShrunkInstrs = ModuleInstrs(shrunk)
	res.ShrunkFires, _, err = check.Fires(shrunk)
	if err != nil {
		return nil, err
	}

	mutantText, err := os.ReadFile(filepath.Join(bundleDir, MutantFile))
	if err != nil {
		return nil, err
	}
	mutant, err := parser.Parse(string(mutantText))
	if err != nil {
		return nil, fmt.Errorf("triage: %s/%s: %w", bundleDir, MutantFile, err)
	}
	res.MutantInstrs = ModuleInstrs(mutant)
	res.MutantFires, _, err = check.Fires(mutant)
	if err != nil {
		return nil, err
	}

	res.RegenMatches, err = regenerate(bundleDir, man, string(mutantText))
	if err != nil {
		return nil, err
	}
	res.WitnessHolds, err = bundleWitnessHolds(bundleDir, check, mutant)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// bundleWitnessHolds checks a miscompilation bundle's
// counterexample.json against the mutant (Check.witnessHolds). A crash
// bundle has none.
func bundleWitnessHolds(bundleDir string, check *Check, mutant *ir.Module) (bool, error) {
	if check.Kind == KindCrash {
		return true, nil
	}
	buf, err := os.ReadFile(filepath.Join(bundleDir, CEXFile))
	if err != nil {
		return false, err
	}
	w, err := decodeWitness(buf)
	if err != nil {
		return false, err
	}
	return check.witnessHolds(mutant, w)
}

// regenerate re-derives the mutant from the seed test and the logged PRNG
// seed, exactly as the campaign unit did, and compares texts.
func regenerate(bundleDir string, man *Manifest, wantMutant string) (bool, error) {
	seedMod, err := parseFile(bundleDir, SeedFile)
	if err != nil {
		return false, err
	}
	mutantSeed, err := strconv.ParseUint(man.Seed, 10, 64)
	if err != nil {
		return false, fmt.Errorf("triage: bad seed %q in manifest: %w", man.Seed, err)
	}
	fz, err := core.New(seedMod, core.Options{
		Passes: man.Passes,
		TV:     tv.Options{ConflictBudget: man.TVBudget},
	})
	if err != nil {
		return false, fmt.Errorf("triage: preparing seed for regeneration: %w", err)
	}
	return fz.Replay(mutantSeed).String() == wantMutant, nil
}

func parseFile(dir, name string) (*ir.Module, error) {
	buf, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	m, err := parser.Parse(string(buf))
	if err != nil {
		return nil, fmt.Errorf("triage: %s/%s: %w", dir, name, err)
	}
	return m, nil
}
