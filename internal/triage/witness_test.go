package triage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/parser"
)

// The 53218 bundle of the seed-7 campaign: GVN merges the plain add into
// the nsw one, so the target returns poison where the signed add
// overflows. Its witness overflows (-90 + -39); the tampered one does
// not, and source and target agree on it.
const (
	gvnSeed = `define i8 @cse_flags(i8 %x, i8 %y, i1 %c) {
entry:
  %a = add nsw i8 %x, %y
  br i1 %c, label %l, label %r
l:
  %b = add nsw i8 %x, %y
  ret i8 %b
r:
  %d = mul i8 %x, 7
  ret i8 %d
}
`
	gvnMutant = `define i8 @cse_flags(i8 %x, i8 %y, i1 %c) {
  %a = add nsw i8 %x, %y
  br i1 %c, label %l, label %r
l:
  %b = add i8 %x, %y
  ret i8 %b
r:
  %d = mul i8 %x, 7
  ret i8 %d
}
`
	gvnWitness = `{
  "inputs": [
    {"name": "x", "value": "166"},
    {"name": "y", "value": "217"},
    {"name": "c", "value": "1"}
  ],
  "src": {"ret": "127"},
  "tgt": {"ret": "poison"},
  "confirmed": true,
  "divergence": "ret_poison",
  "detail": "ret 127 vs poison"
}
`
)

// writeGVNBundle writes the 53218 bundle with the given witness text.
func writeGVNBundle(t *testing.T, witness string) string {
	t.Helper()
	dir := t.TempDir()
	man, err := marshalJSON(Manifest{
		Schema: BundleSchema, Signature: "miscompile:seeded-53218", Kind: KindMiscompile,
		Group: "53218", Unit: "gvn_flags_regression", Iter: 14, Seed: "13678530088498135352",
		Issue: 53218, Passes: "O2", TVBudget: 4000, Func: "cse_flags",
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{
		ManifestFile: string(man), SeedFile: gvnSeed, MutantFile: gvnMutant,
		ShrunkFile: gvnMutant, CEXFile: witness,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestReplayChecksWitness: the recorded witness replays; the same bundle
// with tampered inputs fails replay although its modules still fire; and
// a witness that does not fit the mutant, or does not parse, is an error.
func TestReplayChecksWitness(t *testing.T) {
	res, err := Replay(writeGVNBundle(t, gvnWitness))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("recorded bundle: %+v, want a full replay", res)
	}

	tampered := strings.Replace(strings.Replace(gvnWitness, `"166"`, `"1"`, 1), `"217"`, `"2"`, 1)
	res, err = Replay(writeGVNBundle(t, tampered))
	if err != nil {
		t.Fatal(err)
	}
	if res.WitnessHolds || res.OK() {
		t.Fatalf("tampered inputs: %+v, want the witness to fail", res)
	}
	if !res.ShrunkFires || !res.MutantFires {
		t.Fatalf("tampered inputs: %+v, want the modules to fire still", res)
	}

	for name, witness := range map[string]string{
		"value too wide": strings.Replace(gvnWitness, `"166"`, `"300"`, 1),
		"not a number":   strings.Replace(gvnWitness, `"217"`, `"0xd9"`, 1),
		"renamed input":  strings.Replace(gvnWitness, `"name": "y"`, `"name": "z"`, 1),
		"missing input": strings.Replace(gvnWitness, `,
    {"name": "c", "value": "1"}`, "", 1),
		"unknown class": strings.Replace(gvnWitness, `"ret_poison"`, `"ret_bogus"`, 1),
		"truncated":     gvnWitness[:40],
	} {
		if _, err := Replay(writeGVNBundle(t, witness)); err == nil {
			t.Errorf("%s: replay succeeded, want an error", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}

// FuzzDecodeWitness: no counterexample.json, however malformed, may
// panic the decoder or the re-execution behind it; a decoded witness
// round-trips.
func FuzzDecodeWitness(f *testing.F) {
	f.Add([]byte(gvnWitness))
	f.Add([]byte(`{"inputs":[{"name":"x","value":"poison"}],"confirmed":false,"divergence":"unconfirmed"}`))
	f.Add([]byte(`{"inputs":[{"name":"x","value":"18446744073709551615"},{"name":"y","value":"0"},{"name":"c","value":"3"}],"confirmed":true,"divergence":"tgt_ub"}`))
	f.Add([]byte(`{"inputs":null}`))
	mod := parser.MustParse(gvnMutant)
	check := &Check{Passes: "O2", Issue: 53218, TVBudget: 4000, Func: "cse_flags", Kind: KindMiscompile}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := decodeWitness(data)
		if err != nil {
			return
		}
		buf, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := decodeWitness(buf)
		if err != nil {
			t.Fatalf("a decoded witness does not decode again: %v\n%s", err, buf)
		}
		if !reflect.DeepEqual(w, w2) {
			t.Fatalf("round trip changed the witness: %+v, then %+v", w, w2)
		}
		check.witnessHolds(mod, w)
	})
}
