package ir_test

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/mutate"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/rng"
)

// goldenPerSeed is how many mutants of each corpus seed the golden
// tests print.
const goldenPerSeed = 40

// Pinned SHA-256 digests of the printed text of the golden mutants and
// of their O2-optimized modules. They were recorded before the printer
// stopped going through fmt, and any change to the printer's output, to
// the mutator's draws or to the optimizer moves them.
const (
	goldenMutantDigest    = "0e795c29692b00e393d3a2a05f0954fea89f232981ff0eabf2be9602bebb6a15"
	goldenOptimizedDigest = "80d4a9a9781f1ab6367fa2669aaa0e677d250121e6806538dd06db71f2c2e165"
)

// goldenPair is one golden mutant and its optimized copy.
type goldenPair struct {
	name           string
	seed           uint64
	mutant, optmzd *ir.Module
}

// goldenSeeds returns every seed module the golden tests mutate: each
// targeted corpus test, then one generated module.
func goldenSeeds(t testing.TB) []*ir.Module {
	t.Helper()
	var mods []*ir.Module
	for _, nt := range corpus.TargetedTests() {
		m, err := parser.Parse(nt.Text)
		if err != nil {
			t.Fatalf("seed %s: %v", nt.Name, err)
		}
		mods = append(mods, m)
	}
	return append(mods, corpus.Generate(1, 16))
}

// goldenPairs builds the first goldenPerSeed mutants of every seed module,
// with the mutant seeds split from one master seed as the fuzzing loop
// does, and optimizes a copy of each at O2.
func goldenPairs(t testing.TB) []goldenPair {
	t.Helper()
	var pairs []goldenPair
	for i, m := range goldenSeeds(t) {
		mu := mutate.New(m, mutate.Config{})
		master := rng.New(uint64(7 + i))
		for n := 0; n < goldenPerSeed; n++ {
			seed := master.SplitSeed()
			mutant := mu.Mutate(seed)
			optimized := mutant.Clone()
			opt.RunPasses(opt.NewContext(optimized), opt.O2())
			name := "<generated>"
			if defs := m.Defs(); len(defs) > 0 {
				name = defs[0].Name
			}
			pairs = append(pairs, goldenPair{name: name, seed: seed, mutant: mutant, optmzd: optimized})
		}
	}
	return pairs
}

func TestPrintGolden(t *testing.T) {
	mh, oh := sha256.New(), sha256.New()
	for _, p := range goldenPairs(t) {
		io.WriteString(mh, p.mutant.String())
		io.WriteString(oh, p.optmzd.String())
	}
	if got := hex.EncodeToString(mh.Sum(nil)); got != goldenMutantDigest {
		t.Errorf("mutant text digest = %s, want %s", got, goldenMutantDigest)
	}
	if got := hex.EncodeToString(oh.Sum(nil)); got != goldenOptimizedDigest {
		t.Errorf("optimized text digest = %s, want %s", got, goldenOptimizedDigest)
	}
}

// checkSameText fails unless SameText(a, b) agrees with comparing the
// printed text, in both argument orders.
func checkSameText(t *testing.T, a, b *ir.Function) bool {
	t.Helper()
	want := a.String() == b.String()
	if got := ir.SameText(a, b); got != want {
		t.Fatalf("SameText = %t, text equality %t:\n%s\n---\n%s", got, want, a, b)
	}
	if got := ir.SameText(b, a); got != want {
		t.Fatalf("SameText (swapped) = %t, text equality %t:\n%s\n---\n%s", got, want, b, a)
	}
	return want
}

// TestSameTextMatchesString: over the golden mutants, SameText agrees
// with text equality between each optimized function and its mutant (the
// fuzzing loop's fast path) and between the same function of successive
// mutants of one seed, which often differ only late in the text.
func TestSameTextMatchesString(t *testing.T) {
	var same, differ int
	var prev goldenPair
	for _, p := range goldenPairs(t) {
		for _, fn := range p.optmzd.Defs() {
			pairs := [][2]*ir.Function{{p.mutant.FuncByName(fn.Name), fn}}
			if prev.mutant != nil && prev.name == p.name {
				if g := prev.mutant.FuncByName(fn.Name); g != nil {
					pairs = append(pairs, [2]*ir.Function{g, p.mutant.FuncByName(fn.Name)})
				}
			}
			for _, pr := range pairs {
				if checkSameText(t, pr[0], pr[1]) {
					same++
				} else {
					differ++
				}
			}
		}
		prev = p
	}
	if same == 0 || differ == 0 {
		t.Fatalf("golden pairs gave %d equal and %d differing texts; want both", same, differ)
	}
}

var (
	fuzzSeedsOnce sync.Once
	fuzzMutators  []*mutate.Mutator
)

// FuzzSameText draws two mutants of one corpus seed and checks SameText
// against text equality between them and between the first and its
// optimized copy.
func FuzzSameText(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(2))
	f.Add(uint8(3), uint64(7), uint64(7))
	f.Add(uint8(26), uint64(11), uint64(12))
	f.Fuzz(func(t *testing.T, which uint8, s1, s2 uint64) {
		fuzzSeedsOnce.Do(func() {
			for _, m := range goldenSeeds(t) {
				fuzzMutators = append(fuzzMutators, mutate.New(m, mutate.Config{}))
			}
		})
		mu := fuzzMutators[int(which)%len(fuzzMutators)]
		m1, m2 := mu.Mutate(s1), mu.Mutate(s2)
		optimized := m1.Clone()
		opt.RunPasses(opt.NewContext(optimized), opt.O2())
		for _, fn := range m1.Defs() {
			if g := m2.FuncByName(fn.Name); g != nil {
				checkSameText(t, fn, g)
			}
			checkSameText(t, fn, optimized.FuncByName(fn.Name))
		}
	})
}
