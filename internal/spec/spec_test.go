package spec

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"systolicdp/internal/core"
	"systolicdp/internal/multistage"
	"systolicdp/internal/semiring"
)

func TestParseGraphAndSolve(t *testing.T) {
	data := []byte(`{"problem":"graph","design":1,
		"costs":[[[1,2,3]],[[4,5,6],[7,8,9],[1,1,1]],[[2],[3],[4]]]}`)
	p, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Shortest: 1 -> row0 ... enumerate: paths s->i->j->t with costs
	// c1[i] + c2[i][j] + c3[j]. Minimum is 3 + 1 + 2 = 6 (i=2, j=0).
	if math.Abs(sol.Cost-6) > 1e-9 {
		t.Errorf("cost %v, want 6", sol.Cost)
	}
	if sol.Class.String() != "monadic-serial" {
		t.Errorf("class %v", sol.Class)
	}
}

func TestParseNodeValued(t *testing.T) {
	data := []byte(`{"problem":"nodevalued","values":[[0,10],[5,20],[5,0]],"cost":"absdiff"}`)
	p, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Best assignment: 0 -> 5 -> 5 = 5 + 0 = 5? and 10->5->5 = 5; also
	// 0->5->5: |0-5|+|5-5| = 5. Verify value.
	if math.Abs(sol.Cost-5) > 1e-9 {
		t.Errorf("cost %v, want 5", sol.Cost)
	}
}

func TestParseNodeValuedDefaultsAndNamedCosts(t *testing.T) {
	for name := range multistage.PairCosts() {
		data := []byte(`{"problem":"nodevalued","values":[[1,2],[3,4]],"cost":"` + name + `"}`)
		if _, err := Parse(data); err != nil {
			t.Errorf("cost %q rejected: %v", name, err)
		}
	}
	if _, err := Parse([]byte(`{"problem":"nodevalued","values":[[1],[2]]}`)); err != nil {
		t.Errorf("default cost rejected: %v", err)
	}
	if _, err := Parse([]byte(`{"problem":"nodevalued","values":[[1],[2]],"cost":"nope"}`)); err == nil {
		t.Error("unknown cost accepted")
	}
}

func TestParseChain(t *testing.T) {
	p, err := Parse([]byte(`{"problem":"chain","dims":[30,35,15,5,10,20,25]}`))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 15125 {
		t.Errorf("cost %v, want 15125", sol.Cost)
	}
}

func TestParseNonserial(t *testing.T) {
	for name := range TernaryCosts() {
		data := []byte(`{"problem":"nonserial","domains":[[1,2],[1,2],[1,2],[1,2]],"cost":"` + name + `"}`)
		p, err := Parse(data)
		if err != nil {
			t.Fatalf("cost %q: %v", name, err)
		}
		if _, err := core.Solve(p); err != nil {
			t.Fatalf("cost %q solve: %v", name, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := [][]byte{
		[]byte(`{`),
		[]byte(`{"problem":"martian"}`),
		[]byte(`{"problem":"graph"}`),
		[]byte(`{"problem":"graph","costs":[[]]}`),
		[]byte(`{"problem":"graph","costs":[[[1,2]],[[1],[2],[3]]]}`), // shape mismatch
		[]byte(`{"problem":"chain","dims":[5]}`),
		[]byte(`{"problem":"nonserial","domains":[[1]]}`),
		[]byte(`{"problem":"nonserial","domains":[[1],[2],[3]],"cost":"nope"}`),
		[]byte(`{"problem":"nodevalued","values":[[1]]}`),
		// Graph designs the arrays cannot run.
		[]byte(`{"problem":"graph","design":7,"costs":[[[1,2]],[[1],[3]]]}`),
		[]byte(`{"problem":"graph","design":-1,"costs":[[[1,2]],[[1],[3]]]}`),
		[]byte(`{"problem":"graph","design":1,"costs":[[[1,2]],[[1,2],[3,4]]]}`), // two sinks
		[]byte(`{"problem":"graph","design":2,"costs":[[[1,2]],[[1,2],[3,4]]]}`), // two sinks
		[]byte(`{"problem":"graph","design":1,"costs":[[[1],[2]],[[1]]]}`),       // source wider than m
		[]byte(`{"problem":"graph","design":2,"costs":[[[3]]]}`),                 // one matrix
	}
	for i, b := range bad {
		if _, err := Parse(b); err == nil {
			t.Errorf("bad spec %d accepted: %s", i, b)
		}
	}
	// json.Unmarshal leaves 0 where an array element is null, and
	// JSON.stringify writes NaN and ±Infinity as null. The unknown key
	// sends the last body through the encoding/json path.
	for _, c := range []struct{ body, want string }{
		{`{"problem":"dtw","x":[1,null,2],"y":[0]}`, "x[1]"},
		{`{"problem":"graph","costs":[[[1,2]],[[3],[null]]]}`, "costs[1][1][0]"},
		{`{"problem":"align","x":[1],"y":[2,null],"gapopen":1,"gapext":1}`, "y[1]"},
		{`{"problem":"knapsack","proc":[1,2],"due":[3,4],"weights":[null,1]}`, "weights[0]"},
		{`{"problem":"chain","dims":[3,null,4]}`, "dims[1]"},
		{`{"problem":"dtw","note":"js","x":[1,null,2],"y":[0]}`, "x[1]"},
	} {
		_, err := Parse([]byte(c.body))
		if err == nil || !strings.Contains(err.Error(), c.want+": null element") {
			t.Errorf("%s: error %v, want one naming %s", c.body, err, c.want)
		}
	}
}

func TestGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inner := multistage.RandomUniform(rng, 4, 3, 1, 10)
	g := multistage.SingleSourceSink(semiring.MinPlus{}, inner)
	f, err := FromGraph(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	want := multistage.SolveOptimal(semiring.MinPlus{}, g)
	if math.Abs(sol.Cost-want.Cost) > 1e-9 {
		t.Errorf("round-trip cost %v, want %v", sol.Cost, want.Cost)
	}
}

func TestChainRoundTrip(t *testing.T) {
	f := FromChain([]int{30, 35, 15, 5, 10, 20, 25})
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 15125 {
		t.Errorf("round-trip cost %v", sol.Cost)
	}
}

func TestFromGraphRejectsInvalid(t *testing.T) {
	if _, err := FromGraph(&multistage.Graph{StageSizes: []int{1}}, 0); err == nil {
		t.Error("invalid graph accepted")
	}
}
