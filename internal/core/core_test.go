package core

import (
	"math"
	"math/rand"
	"testing"

	"systolicdp/internal/matchain"
	"systolicdp/internal/matrix"
	"systolicdp/internal/multistage"
	"systolicdp/internal/nonserial"
	"systolicdp/internal/semiring"
)

var mp = semiring.MinPlus{}

func TestClassStrings(t *testing.T) {
	cases := map[Class]string{
		{Monadic, Serial}:     "monadic-serial",
		{Polyadic, Serial}:    "polyadic-serial",
		{Monadic, Nonserial}:  "monadic-nonserial",
		{Polyadic, Nonserial}: "polyadic-nonserial",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%v.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestTableOneCoversAllClasses(t *testing.T) {
	rows := TableOne()
	if len(rows) != 4 {
		t.Fatalf("Table 1 has %d rows, want 4", len(rows))
	}
	seen := map[Class]bool{}
	for _, r := range rows {
		seen[r.Class] = true
		if r.Method == "" || r.Requirements == "" || r.Characteristic == "" {
			t.Errorf("incomplete row %+v", r)
		}
	}
	if len(seen) != 4 {
		t.Error("Table 1 rows do not cover the four classes")
	}
	// Systolic processing is the prescription for both monadic rows.
	if Recommend(Class{Monadic, Serial}).Requirements != "systolic processing" {
		t.Error("monadic-serial should prescribe systolic processing")
	}
	if Recommend(Class{Monadic, Nonserial}).Requirements != "systolic processing" {
		t.Error("monadic-nonserial should prescribe systolic processing")
	}
}

func TestSolveMultistageAllDesigns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inner := multistage.RandomUniform(rng, 4, 3, 1, 10)
	g := multistage.SingleSourceSink(mp, inner)
	want := multistage.SolveOptimal(mp, g).Cost
	for design := 0; design <= 2; design++ {
		sol, err := Solve(&MultistageProblem{Graph: g, Design: design})
		if err != nil {
			t.Fatalf("design %d: %v", design, err)
		}
		if sol.Class != (Class{Monadic, Serial}) {
			t.Errorf("design %d: class %v", design, sol.Class)
		}
		if math.Abs(sol.Cost-want) > 1e-9 {
			t.Errorf("design %d: cost %v, want %v", design, sol.Cost, want)
		}
	}
	if _, err := Solve(&MultistageProblem{Graph: g, Design: 7}); err == nil {
		t.Error("unknown design accepted")
	}
	// Designs 1-2 reject multi-sink graphs.
	if _, err := Solve(&MultistageProblem{Graph: inner, Design: 1}); err == nil {
		t.Error("multi-sink graph accepted by Design 1")
	}
}

// Validate holds Designs 1-2 to the arrays' shape rules: every shape it
// accepts solves on both arrays, and each rejected one breaks one rule.
func TestMultistageValidateDesignShapes(t *testing.T) {
	graph := func(sizes []int) *multistage.Graph {
		g := &multistage.Graph{StageSizes: sizes}
		for k := 0; k+1 < len(sizes); k++ {
			g.Cost = append(g.Cost, matrix.New(sizes[k], sizes[k+1], 1))
		}
		return g
	}
	for _, tc := range []struct {
		sizes []int
		ok    bool
	}{
		{[]int{1, 3, 3, 1}, true},
		{[]int{2, 3, 1}, true}, // source narrower than m
		{[]int{3, 3, 3, 1}, true},
		{[]int{1, 1}, false},       // one cost matrix
		{[]int{1, 2, 2}, false},    // two sinks
		{[]int{4, 3, 1}, false},    // source wider than m
		{[]int{1, 2, 3, 1}, false}, // inner stage not m wide
	} {
		for _, design := range []int{1, 2} {
			p := &MultistageProblem{Graph: graph(tc.sizes), Design: design}
			if err := p.Validate(); (err == nil) != tc.ok {
				t.Errorf("design %d stages %v: Validate = %v, want ok=%v", design, tc.sizes, err, tc.ok)
			}
			if _, err := Solve(p); tc.ok && err != nil {
				t.Errorf("design %d stages %v: accepted shape failed to solve: %v", design, tc.sizes, err)
			}
		}
	}
	for _, design := range []int{-1, 3} {
		p := &MultistageProblem{Graph: graph([]int{1, 3, 1}), Design: design}
		if p.Validate() == nil {
			t.Errorf("design %d accepted", design)
		}
	}
}

// Pricing a Design-1 graph builds its stream problem, which shares the
// graph's matrices and sink column: no allocation.
func TestMultistageWorkAllocs(t *testing.T) {
	p := &MultistageProblem{Graph: testGraph(1, 5, 4), Design: 1}
	if kind, _ := p.Work(); kind != "graph-stream" {
		t.Fatalf("Work kind %q, want graph-stream", kind)
	}
	if n := testing.AllocsPerRun(100, func() { p.Work() }); n != 0 {
		t.Errorf("Design-1 Work allocated %v times", n)
	}
}

func TestSolveNodeValued(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := multistage.RandomNodeValued(rng, 5, 3, 0, 10)
	sol, err := Solve(&NodeValuedProblem{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Solve(mp); math.Abs(sol.Cost-want) > 1e-9 {
		t.Errorf("cost %v, want %v", sol.Cost, want)
	}
	if len(sol.Path) != 5 {
		t.Errorf("path length %d, want 5", len(sol.Path))
	}
}

func TestSolveMatrixString(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ms := make([]*matrix.Matrix, 8)
	for i := range ms {
		ms[i] = matrix.Random(rng, 3, 3, 0, 10)
	}
	sol, err := Solve(&MatrixStringProblem{Matrices: ms, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := semiring.Fold(mp, matrix.ChainMat(mp, ms).Data)
	if math.Abs(sol.Cost-want) > 1e-9 {
		t.Errorf("cost %v, want %v", sol.Cost, want)
	}
	if sol.Class != (Class{Polyadic, Serial}) {
		t.Errorf("class %v", sol.Class)
	}
	// Workers <= 0 defaults to the optimal granularity.
	if _, err := Solve(&MatrixStringProblem{Matrices: ms}); err != nil {
		t.Errorf("default workers failed: %v", err)
	}
}

func TestSolveChainOrdering(t *testing.T) {
	sol, err := Solve(&ChainOrderingProblem{Dims: []int{30, 35, 15, 5, 10, 20, 25}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 15125 {
		t.Errorf("cost %v, want 15125", sol.Cost)
	}
	if sol.Ordering == "" {
		t.Error("missing ordering")
	}
	if sol.Class != (Class{Polyadic, Nonserial}) {
		t.Errorf("class %v", sol.Class)
	}
}

func TestSolveNonserialChain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Uniform domains: solved via Design 3.
	cu := nonserial.RandomUniformChain3(rng, 4, 3, 0, 10)
	sol, err := Solve(&NonserialChainProblem{Chain: cu})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := cu.AsProblem().BruteForce()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Cost-want) > 1e-9 {
		t.Errorf("uniform: cost %v, want %v", sol.Cost, want)
	}
	// Ragged domains: solved via the grouped graph.
	cr := nonserial.RandomChain3(rng, 4, 2, 0, 10)
	cr.Domains[1] = append(cr.Domains[1], 3.3)
	sol, err = Solve(&NonserialChainProblem{Chain: cr})
	if err != nil {
		t.Fatal(err)
	}
	_, want, err = cr.AsProblem().BruteForce()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Cost-want) > 1e-9 {
		t.Errorf("ragged: cost %v, want %v", sol.Cost, want)
	}
}

func TestSolveAgreesWithMatchainPackage(t *testing.T) {
	dims := []int{5, 4, 6, 2, 7}
	sol, err := Solve(&ChainOrderingProblem{Dims: dims})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := matchain.DP(dims)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != tab.OptimalCost() || sol.Ordering != tab.Parenthesization() {
		t.Error("core dispatch disagrees with matchain")
	}
}

func TestDescribe(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := multistage.RandomUniform(rng, 3, 2, 0, 1)
	probs := []Problem{
		&MultistageProblem{Graph: g, Design: 1},
		&NodeValuedProblem{Problem: multistage.RandomNodeValued(rng, 3, 2, 0, 1)},
		&MatrixStringProblem{Matrices: []*matrix.Matrix{matrix.New(2, 2, 0)}, Workers: 1},
		&ChainOrderingProblem{Dims: []int{2, 3, 4}},
		&NonserialChainProblem{Chain: nonserial.RandomChain3(rng, 3, 2, 0, 1)},
	}
	for _, p := range probs {
		if p.Describe() == "" {
			t.Errorf("%T: empty description", p)
		}
	}
}

func TestSolveRejectsUnknownType(t *testing.T) {
	if _, err := Solve(bogus{}); err == nil {
		t.Error("unknown problem type accepted")
	}
}

type bogus struct{}

func (bogus) Classify() Class         { return Class{} }
func (bogus) Describe() string        { return "bogus" }
func (bogus) Work() (string, float64) { return "bogus", 1 }

func TestRecommendUnknownClass(t *testing.T) {
	// Force the fallback row with an out-of-range class value.
	r := Recommend(Class{Arity: Arity(9), Structure: Structure(9)})
	if r.Method != "unknown" {
		t.Errorf("method %q, want unknown", r.Method)
	}
}

func TestSolveErrorPaths(t *testing.T) {
	// Invalid graph.
	if _, err := Solve(&MultistageProblem{Graph: &multistage.Graph{StageSizes: []int{1}}}); err == nil {
		t.Error("invalid graph accepted")
	}
	// Too-short matrix string for designs 1-2.
	g := &multistage.Graph{
		StageSizes: []int{1, 1},
		Cost:       []*matrix.Matrix{matrix.New(1, 1, 0)},
	}
	if _, err := Solve(&MultistageProblem{Graph: g, Design: 1}); err == nil {
		t.Error("1-matrix string accepted by design 1")
	}
	// Bad chain dims.
	if _, err := Solve(&ChainOrderingProblem{Dims: []int{3}}); err == nil {
		t.Error("short dims accepted")
	}
	// Bad node-valued problem.
	if _, err := Solve(&NodeValuedProblem{Problem: &multistage.NodeValued{}}); err == nil {
		t.Error("invalid node-valued problem accepted")
	}
	// Bad nonserial chain.
	if _, err := Solve(&NonserialChainProblem{Chain: &nonserial.Chain3{}}); err == nil {
		t.Error("invalid chain accepted")
	}
	// Bad matrix string for divide and conquer.
	if _, err := Solve(&MatrixStringProblem{Matrices: nil, Workers: 1}); err == nil {
		t.Error("empty matrix string accepted")
	}
}
