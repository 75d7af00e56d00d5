package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"systolicdp/internal/core"
)

// Parse → Marshal → Parse must be a fixed point: re-decoding the marshaled
// form and marshaling again yields identical bytes, and both decode to
// specs with equal hashes. This is what the serving cache key relies on.
func TestMarshalRoundTripDeterministic(t *testing.T) {
	inputs := []string{
		`{"problem":"graph","design":1,"costs":[[[1,2,3]],[[4,5,6],[7,8,9],[1,1,1]],[[2],[3],[4]]]}`,
		`{"problem":"nodevalued","values":[[0,10],[5,20],[5,0]],"cost":"absdiff"}`,
		`{"problem":"chain","dims":[30,35,15,5,10,20,25]}`,
		`{"problem":"nonserial","domains":[[1,2],[1,2],[1,2],[1,2]],"cost":"span"}`,
		`{"problem":"dtw","x":[0,1,2.5,3],"y":[0,1,1,2,3]}`,
	}
	for _, in := range inputs {
		f, err := Decode([]byte(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		m1, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		g, err := Decode(m1)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		m2, err := g.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Errorf("%s: marshal not a fixed point:\n%s\nvs\n%s", in, m1, m2)
		}
		h1, err := f.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := g.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Errorf("%s: hash changed across round trip: %s vs %s", in, h1, h2)
		}
	}
}

// Marshal must be byte-stable across repeated calls on the same File.
func TestMarshalRepeatable(t *testing.T) {
	f := &File{Problem: "chain", Dims: []int{3, 7, 2, 9}}
	a, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("marshal unstable:\n%s\nvs\n%s", a, b)
	}
}

// Semantically identical specs hash identically; different problems don't.
func TestHashCanonicalization(t *testing.T) {
	// Implicit vs explicit default cost name.
	a, _ := Decode([]byte(`{"problem":"nodevalued","values":[[0,1],[2,3]]}`))
	b, _ := Decode([]byte(`{"problem":"nodevalued","values":[[0,1],[2,3]],"cost":"absdiff"}`))
	// A stray irrelevant field must not perturb the key.
	c, _ := Decode([]byte(`{"problem":"chain","dims":[2,3,4],"cost":"absdiff"}`))
	d, _ := Decode([]byte(`{"problem":"chain","dims":[2,3,4]}`))
	e, _ := Decode([]byte(`{"problem":"chain","dims":[2,3,5]}`))

	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Errorf("default cost should canonicalize: %s vs %s", ha, hb)
	}
	hc, _ := c.Hash()
	hd, _ := d.Hash()
	he, _ := e.Hash()
	if hc != hd {
		t.Errorf("irrelevant field should not change hash: %s vs %s", hc, hd)
	}
	if hd == he {
		t.Errorf("different dims must hash differently")
	}
	if ha == hd {
		t.Errorf("different problems must hash differently")
	}
}

// goldenSpecs is one clean spec per kind with its cache key. The keys
// are pinned: a change to Canonical, Marshal or the File layout that
// moves any of them would orphan every cached answer and every key a
// routing tier has placed on its ring.
var goldenSpecs = []struct{ spec, hash string }{
	{`{"problem":"graph","design":1,"costs":[[[1,2,3]],[[4,5,6],[7,8,9],[1,1,1]],[[2],[3],[4]]]}`,
		"eecff867558847516e592b69a606f313ffab3d0b823e7ceaf9217f4541a33daf"},
	{`{"problem":"nodevalued","values":[[0,10],[5,20],[5,0]],"cost":"absdiff"}`,
		"1ff1e0441d126cb566ed87aabd1e24819e8363c1bb8c267e56b3c05801a71141"},
	{`{"problem":"chain","dims":[30,35,15,5,10,20,25]}`,
		"bc773378b940b94aeb09bab06ca4ea1651bdac0f11ba272799b8756fb4899299"},
	{`{"problem":"nonserial","domains":[[1,2],[1,2],[1,2],[1,2]],"cost":"span"}`,
		"a84863301160907a4f1db7532a652d76651352e326c4522996fb7062b80ac446"},
	{`{"problem":"dtw","x":[0,1,2.5,3],"y":[0,1,1,2,3]}`,
		"11e8a1079a1e6c514c7fc03a7cf4ebe89d1aad6786ccb62a4fe5cc33b13f3e8b"},
	{`{"problem":"align","x":[0,1,2.5],"y":[1,2],"gapopen":3,"gapext":1}`,
		"8967bceee40c3b53e7ffcc00cc2bf5aa43afc8958e91ea78d13ebf9eacdf64cd"},
	{`{"problem":"viterbi","values":[[1,2],[3,4],[5,6]],"costs":[[[1,2],[3,4]],[[5,6],[7,8]]]}`,
		"079927854caeac542f695c463fa67f5348a852bf5fa481e8c39dc9e43b77c089"},
	{`{"problem":"knapsack","proc":[2,3,1],"due":[3,5,4],"weights":[4,2.5,5]}`,
		"5ed5dfb3f261e0ba260f603edb99732ced0540090ce4c9e5d433b7510dc6b105"},
}

func TestHashGolden(t *testing.T) {
	for _, g := range goldenSpecs {
		f, err := Decode([]byte(g.spec))
		if err != nil {
			t.Fatalf("%s: %v", g.spec, err)
		}
		if _, err := f.Build(); err != nil {
			t.Fatalf("%s: %v", g.spec, err)
		}
		if got, err := f.Hash(); err != nil || got != g.hash {
			t.Errorf("%s: hash %s (%v), want %s", f.Problem, got, err, g.hash)
		}
	}
}

// A field the kind's Build never reads must not give the same problem a
// second cache key, for the kinds that reuse other kinds' wire fields.
func TestHashIgnoresStrayFields(t *testing.T) {
	for _, c := range []struct{ clean, stray string }{
		{goldenSpecs[5].spec, `{"problem":"align","x":[0,1,2.5],"y":[1,2],"gapopen":3,"gapext":1,"dims":[2,3],"cost":"span"}`},
		{goldenSpecs[6].spec, `{"problem":"viterbi","design":2,"cost":"absdiff","values":[[1,2],[3,4],[5,6]],"costs":[[[1,2],[3,4]],[[5,6],[7,8]]]}`},
		{goldenSpecs[7].spec, `{"problem":"knapsack","proc":[2,3,1],"due":[3,5,4],"weights":[4,2.5,5],"x":[1],"gapopen":2}`},
	} {
		a, err := Decode([]byte(c.clean))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Decode([]byte(c.stray))
		if err != nil {
			t.Fatal(err)
		}
		ha, _ := a.Hash()
		hb, _ := b.Hash()
		if ha != hb {
			t.Errorf("%s: stray field changed the cache key: %s vs %s", a.Problem, ha, hb)
		}
	}
}

// Every kind builds from its canonical fields alone: filling each wire
// field a clean spec leaves empty with junk must build a problem with the
// clean spec's answer, under the clean spec's cache key.
func TestBuildIgnoresStrayFields(t *testing.T) {
	junk := map[reflect.Type]any{
		reflect.TypeOf(""):              "span",
		reflect.TypeOf(0):               2,
		reflect.TypeOf(0.0):             7.0,
		reflect.TypeOf([]int{}):         []int{3, 1, 4},
		reflect.TypeOf([]float64{}):     []float64{9, -9},
		reflect.TypeOf([][]float64{}):   [][]float64{{1, 2}, {3}},
		reflect.TypeOf([][][]float64{}): [][][]float64{{{5}}},
	}
	solve := func(f *File) *core.Solution {
		p, err := f.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", f.Problem, err)
		}
		sol, err := core.Solve(p)
		if err != nil {
			t.Fatalf("%s: solve: %v", f.Problem, err)
		}
		return sol
	}
	seen := map[string]bool{}
	for _, g := range goldenSpecs {
		clean, err := Decode([]byte(g.spec))
		if err != nil {
			t.Fatal(err)
		}
		seen[clean.Problem] = true
		stray := *clean
		v := reflect.ValueOf(&stray).Elem()
		for i := 0; i < v.NumField(); i++ {
			if fv := v.Field(i); fv.IsZero() {
				j, ok := junk[fv.Type()]
				if !ok {
					t.Fatalf("field %s has a type this test does not fill", v.Type().Field(i).Name)
				}
				fv.Set(reflect.ValueOf(j))
			}
		}
		if got, want := solve(&stray), solve(clean); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stray fields changed the answer: %+v, want %+v", clean.Problem, got, want)
		}
		if hs, _ := stray.Hash(); hs != g.hash {
			t.Errorf("%s: stray fields changed the cache key: %s, want %s", clean.Problem, hs, g.hash)
		}
	}
	for _, k := range Kinds() {
		if !seen[k] {
			t.Errorf("kind %q has no golden spec", k)
		}
	}
}

// marshalHash is the cache key's definition, which Hash must reproduce:
// the hex SHA-256 of json.Marshal(Canonical()).
func marshalHash(f *File) (string, error) {
	data, err := json.Marshal(f.Canonical())
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// AppendKey of a spec's canonical encoding, json.Marshal of its
// canonical form, is the key Hash returns, so a replica finds a cached
// entry from a canonical body's bytes alone.
func TestAppendKeyMatchesHash(t *testing.T) {
	for _, g := range goldenSpecs {
		f, err := Decode([]byte(g.spec))
		if err != nil {
			t.Fatal(err)
		}
		c := f.Canonical()
		body, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		if k := AppendKey(nil, body); string(k) != g.hash {
			t.Errorf("%s: AppendKey %s, golden %s", g.spec, k, g.hash)
		}
		if k := AppendKey([]byte("x"), body); string(k) != "x"+g.hash {
			t.Errorf("%s: AppendKey onto x wrote %s", g.spec, k)
		}
	}
}

func TestHashMatchesMarshal(t *testing.T) {
	var files []*File
	for _, g := range goldenSpecs {
		f, err := Decode([]byte(g.spec))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	odd := []float64{math.Copysign(0, -1), 0, 5e-324, 1e-7, 1.5e-7, 1e-6, 0.1, 1 << 53, 1<<53 + 2,
		1<<53 - 1, -(1<<53 - 1), 1e20, 1e21, -1e21, 123456789.125, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(1))
	random := make([]float64, 2000)
	for i := range random {
		// Every exponent, and integers on both sides of 2^53.
		switch v := math.Float64frombits(rng.Uint64()); {
		case i%2 == 0 && !math.IsNaN(v) && !math.IsInf(v, 0):
			random[i] = v
		default:
			random[i] = float64(rng.Int63n(1<<55) - 1<<54)
		}
	}
	files = append(files,
		&File{Problem: "dtw", X: odd, Y: random},
		&File{Problem: "align", X: []float64{}, Y: odd, GapOpen: 0.1, GapExtend: 1e-7},
		&File{Problem: "align", X: odd, GapOpen: math.Copysign(0, -1), GapExtend: 1e21},
		&File{Problem: "graph", Design: -2, Costs: [][][]float64{nil, {}, {nil, {}, odd}}},
		&File{Problem: "viterbi", Values: [][]float64{nil, {}, odd}, Costs: [][][]float64{{{-0.5}}}},
		&File{Problem: "nonserial", Domains: [][]float64{{1}, nil}, Cost: "tab\t\"q\"\\ é   \xff"},
		&File{Problem: "knapsack", Proc: []int{0, -5, math.MaxInt}, Due: []int{math.MinInt}, Weights: odd},
		&File{Problem: "chain", Dims: []int{1, 1 << 40}},
		// An unknown kind keeps every field.
		&File{Problem: "bad\"kind<", Design: 3, Costs: [][][]float64{{odd}}, Values: [][]float64{odd},
			Cost: "x", Dims: []int{4}, Domains: [][]float64{{}}, X: odd, Y: []float64{-0.25},
			GapOpen: -1e-9, GapExtend: 7, Proc: []int{1}, Due: []int{2}, Weights: []float64{}},
		&File{},
	)
	// Each byte json.Marshal escapes, alone, and a string it leaves as is.
	for _, s := range []string{"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\tb", "a\x7fb", "aéb", "a\xffb", "a\u2028b", " ~!#"} {
		files = append(files, &File{Problem: "nodevalued", Values: [][]float64{{1}, {2}}, Cost: s})
	}
	for _, f := range files {
		got, err := f.Hash()
		want, werr := marshalHash(f)
		if err != nil || werr != nil || got != want {
			t.Errorf("%s: Hash %s (%v), json.Marshal %s (%v)", f.Problem, got, err, want, werr)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, f := range []*File{
			{Problem: "dtw", X: []float64{1, v}, Y: []float64{0}},
			{Problem: "align", GapOpen: v},
			{Problem: "graph", Costs: [][][]float64{{{0}, {v}}}},
		} {
			if got, err := f.Hash(); err == nil {
				t.Errorf("%v in %s: Hash %s, want an error", v, f.Problem, got)
			}
		}
	}
}
