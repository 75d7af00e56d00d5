package spec

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"systolicdp/internal/core"
)

// FuzzParse feeds arbitrary bytes to the spec parser; it must never panic,
// and any spec it accepts must be solvable without error.
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"problem":"chain","dims":[30,35,15,5,10,20,25]}`))
	f.Add([]byte(`{"problem":"graph","design":1,"costs":[[[1,2]],[[3],[4]]]}`))
	f.Add([]byte(`{"problem":"nodevalued","values":[[1,2],[3,4]],"cost":"absdiff"}`))
	f.Add([]byte(`{"problem":"nonserial","domains":[[1,2],[1,2],[1,2]],"cost":"span"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"problem":"graph","costs":[[[1e308,2]],[[3],[4]]]}`))
	// Shapes Decode must reject: zero/negative/absurd dimensions and
	// out-of-range weights (JSON itself cannot carry NaN/Inf literals, so
	// 1e999 and friends arrive as unmarshal errors; the dims checks are
	// the wire-reachable half of Validate).
	f.Add([]byte(`{"problem":"chain","dims":[0,5]}`))
	f.Add([]byte(`{"problem":"chain","dims":[-3,5,7]}`))
	f.Add([]byte(`{"problem":"chain","dims":[2000000,5]}`))
	f.Add([]byte(`{"problem":"dtw","x":[1e999],"y":[0]}`))
	f.Add([]byte(`{"problem":"graph","costs":[[[1e999]]]}`))
	f.Add([]byte(`{"problem":"nodevalued","values":[[-1e999],[2]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		// Accepted specs must solve cleanly. Cap sizes to keep the fuzz
		// loop fast: Validate imposes wire-level limits, but they are far
		// above what a fuzz iteration should execute.
		switch q := p.(type) {
		case *core.ChainOrderingProblem:
			if len(q.Dims) > 40 {
				return
			}
		case *core.NonserialChainProblem:
			total := 1
			for _, d := range q.Chain.Domains {
				total *= len(d)
				if total > 1<<12 {
					return
				}
			}
		case *core.MultistageProblem:
			n := 0
			for _, sz := range q.Graph.StageSizes {
				n += sz
			}
			if n > 200 {
				return
			}
		case *core.NodeValuedProblem:
			n := 0
			for _, vs := range q.Problem.Values {
				n += len(vs)
			}
			if n > 200 {
				return
			}
		}
		if _, err := core.Solve(p); err != nil {
			t.Fatalf("accepted spec failed to solve: %v\n%s", err, data)
		}
	})
}

// jsonDecode decodes with encoding/json alone, json.Unmarshal followed by
// Validate: the reference Decode is held to.
func jsonDecode(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// sameFile compares Files field by field, floats bit for bit and a nil
// slice apart from an empty one: %#v shows -0 and []float64(nil).
// reflect.DeepEqual would take -0 for 0.
func sameFile(a, b *File) bool { return fmt.Sprintf("%#v", *a) == fmt.Sprintf("%#v", *b) }

// FuzzDecodeMatchesJSON holds Decode to encoding/json. A body the plain
// parser accepts is one json.Unmarshal accepts, with the same File. Every
// body decodes, or fails with the same message, as under jsonDecode,
// except that a null array element is an error naming it.
func FuzzDecodeMatchesJSON(f *testing.F) {
	for _, g := range goldenSpecs {
		f.Add([]byte(g.spec))
	}
	for _, s := range []string{
		`{"problem":"dtw","x":[-0,1e-7,1e21,1234567890123456,-9007199254740993],"y":[0.1]}`,
		`{"problem":"dtw","x":[01],"y":[1]}`,
		`{"problem":"dtw","x":[1.],"y":[1]}`,
		`{"problem":"dtw","x":[1e999],"y":[1]}`,
		`{"problem":"dtw","x":[1e-400,-1E+2],"y":[1]}`,
		`{"problem":"graph","design":2.0,"costs":[[[1,2]],[[3],[4]]]}`,
		`{"problem":"chain","dims":[123456789012345678,1234567890123456789,-0]}`,
		`{"problem":"chain","dims":[2,3],"dims":[4,5,6]}`,
		`{"problem":"graph","costs":[[[1,2],[3]]],"costs":[[[5]],[]]}`,
		`{"Problem":"chain","dims":[2,3]}`,
		`{"pro\u0062lem":"chain","dims":[2,3]}`,
		`{"problem":"nodevalued","values":[[1],[2]],"cost":"<&>"}`,
		`{"problem":"nodevalued","values":[[1],[2]],"cost":"abé"}`,
		"{\"problem\":\"nodevalued\",\"values\":[[1],[2]],\"cost\":\"\xc3\xa9\"}",
		"{\"problem\":\"nodevalued\",\"values\":[[1],[2]],\"cost\":\"\xff\x7f\"}",
		`{"problem":"viterbi","values":[[1,null],null],"costs":[[null,[1,null]]]}`,
		`{"problem":"chain","dims":null,"x":[[null]]}`,
		` { "problem" : "align" , "x" : [ ] , "y" : [ 1 , 2 ] } `,
		`{}`, `null`, `[]`, `{"problem":"dtw","x":[1,],"y":[1]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want File
		jerr := json.Unmarshal(data, &want)
		var plain File
		if plain.parsePlain(data) {
			if jerr != nil {
				t.Fatalf("plain parser accepted a body json.Unmarshal rejects (%v): %q", jerr, data)
			}
			if !sameFile(&plain, &want) {
				t.Fatalf("plain parser: %#v\njson.Unmarshal: %#v\nbody %q", plain, want, data)
			}
		}
		got, err := Decode(data)
		old, oldErr := jsonDecode(data)
		if at := nullElement(data); jerr == nil && at != "" {
			if err == nil || !strings.Contains(err.Error(), at+": null element") {
				t.Fatalf("null element %s: error %v\nbody %q", at, err, data)
			}
			return
		}
		switch {
		case (err == nil) != (oldErr == nil) || err != nil && err.Error() != oldErr.Error():
			t.Fatalf("Decode error %v, json.Unmarshal and Validate %v\nbody %q", err, oldErr, data)
		case err == nil && !sameFile(got, old):
			t.Fatalf("Decode: %#v\njson.Unmarshal: %#v\nbody %q", *got, *old, data)
		}
	})
}
