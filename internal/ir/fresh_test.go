package ir

import (
	"strconv"
	"testing"

	"repro/internal/rng"
)

// funcNamed builds a function whose parameters and instructions carry
// the given names (alternating, so both kinds are scanned).
func funcNamed(names ...string) *Function {
	f := NewFunction("f", I8)
	b := f.NewBlock("entry")
	var last Value = NewConst(I8, 0)
	for i, n := range names {
		if i%2 == 0 {
			f.Params = append(f.Params, &Param{Nm: n, Ty: I8})
			continue
		}
		last = b.Append(NewBinary(OpAdd, n, last, NewConst(I8, 1)))
	}
	b.Append(NewRet(last))
	return f
}

// freshNameReference is FreshName's specification: try prefix0, prefix1,
// ... against the set of every name.
func freshNameReference(f *Function, prefix string) string {
	used := map[string]bool{}
	for _, p := range f.Params {
		used[p.Nm] = true
	}
	for _, in := range f.Instrs() {
		used[in.Nm] = true
	}
	for i := 0; ; i++ {
		if n := prefix + strconv.Itoa(i); !used[n] {
			return n
		}
	}
}

func TestFreshNameSuffixes(t *testing.T) {
	seq := func(prefix string, n int) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, prefix+strconv.Itoa(i))
		}
		return out
	}
	for _, tc := range []struct {
		names  []string
		prefix string
		want   string
	}{
		{nil, "t", "t0"},
		{[]string{"t0", "t1"}, "t", "t2"},
		{[]string{"t1", "t2"}, "t", "t0"},
		{[]string{"t0", "t01"}, "t", "t1"},          // leading zero is not 1
		{[]string{"t0", "t00", "t000"}, "t", "t1"},  // nor is 00 zero
		{[]string{"t0", "t+1", "t-1"}, "t", "t1"},   // signs never match
		{[]string{"t", "tt0", "xt0"}, "t", "t0"},    // bare prefix, longer prefix
		{[]string{"rv0", "rv1", "r0"}, "rv", "rv2"}, // prefix of another prefix
		{[]string{"rv0", "r0", "r1"}, "r", "r2"},    // "rv0" is not r + digits
		{[]string{"t0", "t99999999999999999999999999"}, "t", "t1"},
		{[]string{"t0", "t1", "t3"}, "t", "t2"},
		{seq("t", 70), "t", "t70"},   // past the first bitset word
		{seq("t", 300), "t", "t300"}, // past the stack bitset
		{append(seq("t", 300), "t1000"), "t", "t300"},
	} {
		f := funcNamed(tc.names...)
		if got := f.FreshName(tc.prefix); got != tc.want {
			t.Errorf("FreshName(%q) over %d names = %q, want %q", tc.prefix, len(tc.names), got, tc.want)
		}
		if ref := freshNameReference(f, tc.prefix); ref != tc.want {
			t.Errorf("reference FreshName(%q) = %q, want %q", tc.prefix, ref, tc.want)
		}
	}

	// Random names over a small alphabet collide with the candidates in
	// every way the table does, and more.
	r := rng.New(1)
	const alphabet = "t0123+-"
	for iter := 0; iter < 2000; iter++ {
		names := make([]string, r.Intn(12))
		for i := range names {
			b := []byte{'t'}
			for n := r.Intn(4); n > 0; n-- {
				b = append(b, alphabet[r.Intn(len(alphabet))])
			}
			names[i] = string(b)
		}
		f := funcNamed(names...)
		if got, want := f.FreshName("t"), freshNameReference(f, "t"); got != want {
			t.Fatalf("names %q: FreshName = %q, reference %q", names, got, want)
		}
	}
}
