// Package spec parses JSON problem specifications for the dpsolve CLI,
// covering the four formulation classes of the paper. A spec names its
// problem kind and supplies the data; named cost functions stand in for
// the paper's f and g functions.
//
// Examples:
//
//	{"problem":"graph","design":1,
//	 "costs":[[[1,2,3]],[[4,5,6],[7,8,9],[1,1,1]],[[2],[3],[4]]]}
//
//	{"problem":"nodevalued",
//	 "values":[[10,20,30],[15,25,35],[5,10,15]],"cost":"absdiff"}
//
//	{"problem":"chain","dims":[30,35,15,5,10,20,25]}
//
//	{"problem":"nonserial","domains":[[1,2],[1,2],[1,2],[1,2]],"cost":"span"}
//
//	{"problem":"dtw","x":[0,1,2,3],"y":[0,1,1,2,3]}
//
// The serving tiers decode and hash every request body, so neither uses
// reflection on the common path: Decode parses the plain form of a body
// (see parser) itself and hands any other body to encoding/json, and
// Hash writes the canonical bytes json.Marshal would.
package spec

import (
	"cmp"
	"encoding/json"
	"fmt"

	"systolicdp/internal/align"
	"systolicdp/internal/core"
	"systolicdp/internal/knapsack"
	"systolicdp/internal/matrix"
	"systolicdp/internal/multistage"
	"systolicdp/internal/nonserial"
	"systolicdp/internal/viterbi"
)

// File is the JSON shape of a problem specification. Field order here is
// the wire order: Marshal emits struct fields in declaration order, so the
// encoding is deterministic — a property the serving cache key (see Hash)
// depends on.
type File struct {
	Problem string        `json:"problem"`
	Design  int           `json:"design,omitempty"`
	Costs   [][][]float64 `json:"costs,omitempty"`   // graph: one matrix per stage transition
	Values  [][]float64   `json:"values,omitempty"`  // nodevalued: stage values
	Cost    string        `json:"cost,omitempty"`    // named cost function
	Dims    []int         `json:"dims,omitempty"`    // chain ordering
	Domains [][]float64   `json:"domains,omitempty"` // nonserial chain
	X       []float64     `json:"x,omitempty"`       // dtw/align: query series
	Y       []float64     `json:"y,omitempty"`       // dtw/align: template series
	// New kinds append fields here: wire order is declaration order and
	// the serving cache hash depends on it, so the seed kinds' encodings
	// must never shift. A new field also goes into parsePlain, and into
	// encoder.file in this order; TestWireCoversEveryField fails until
	// it does.
	GapOpen   float64   `json:"gapopen,omitempty"` // align: affine gap opening penalty
	GapExtend float64   `json:"gapext,omitempty"`  // align: affine gap extension penalty
	Proc      []int     `json:"proc,omitempty"`    // knapsack: processing times
	Due       []int     `json:"due,omitempty"`     // knapsack: due dates
	Weights   []float64 `json:"weights,omitempty"` // knapsack: late weights
}

// PairCosts maps cost-function names to binary cost functions for
// node-valued problems.
func PairCosts() map[string]multistage.CostFunc {
	return map[string]multistage.CostFunc{
		"absdiff":   multistage.AbsDiff,
		"quadratic": func(x, y float64) float64 { return (x - y) * (x - y) },
		"rise": func(x, y float64) float64 {
			if y < x {
				return 5 * (x - y)
			}
			return y - x
		},
	}
}

// TernaryCosts maps names to ternary cost functions for nonserial chains.
func TernaryCosts() map[string]func(a, b, c float64) float64 {
	return map[string]func(a, b, c float64) float64{
		nonserial.GNameDefault: nonserial.DefaultG,
		nonserial.GNameSpan:    nonserial.SpanG,
	}
}

// Parse decodes a spec and builds the corresponding core problem.
func Parse(data []byte) (core.Problem, error) {
	f, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return f.Build()
}

// Decode unmarshals a spec File without building the problem. Useful when
// the caller needs the File itself (e.g. to Hash it for a cache key).
// A body in the plain form (see parser) is read by the package's own
// parser; any other body goes to json.Unmarshal, so it decodes, or
// fails, exactly as it would there. A null array element is rejected
// on either path, since json.Unmarshal would leave a 0 in its place; a
// field that is null as a whole is absent. Every decoded File is
// validated: NaN/±Inf weights and absurd dimensions are rejected here,
// before they can flow into semiring comparisons or array sizing.
func Decode(data []byte) (*File, error) {
	f := new(File)
	if !f.parsePlain(data) {
		*f = File{}
		if err := json.Unmarshal(data, f); err != nil {
			return nil, fmt.Errorf("spec: %v", err)
		}
		if at := nullElement(data); at != "" {
			return nil, fmt.Errorf("spec: %s: null element", at)
		}
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// kind is one problem kind's wire mapping: keep returns the fields its
// problem reads from f, with a defaulted cost name filled in, and build
// makes the problem from such a File.
type kind struct {
	name  string
	keep  func(f *File) File
	build func(c *File) (core.Problem, error)
}

// kinds is every problem kind a spec can name, in the order Kinds lists
// them.
var kinds = [...]kind{
	{"graph", func(f *File) File { return File{Design: f.Design, Costs: f.Costs} }, buildGraph},
	{"nodevalued", func(f *File) File {
		return File{Values: f.Values, Cost: cmp.Or(f.Cost, "absdiff")}
	}, buildNodeValued},
	{"dtw", func(f *File) File { return File{X: f.X, Y: f.Y} }, buildDTW},
	{"align", func(f *File) File {
		return File{X: f.X, Y: f.Y, GapOpen: f.GapOpen, GapExtend: f.GapExtend}
	}, buildAlign},
	// Reuses the wire fields of the node-valued and graph kinds:
	// Values[k] holds stage-k node costs, Costs[k] the k->k+1
	// transition matrix.
	{"viterbi", func(f *File) File { return File{Values: f.Values, Costs: f.Costs} }, buildViterbi},
	{"knapsack", func(f *File) File { return File{Proc: f.Proc, Due: f.Due, Weights: f.Weights} }, buildKnapsack},
	{"chain", func(f *File) File { return File{Dims: f.Dims} }, buildChain},
	{"nonserial", func(f *File) File {
		return File{Domains: f.Domains, Cost: cmp.Or(f.Cost, nonserial.GNameDefault)}
	}, buildNonserial},
}

// Kinds lists the problem kinds a spec can name.
func Kinds() []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	return names
}

// lookup returns the table entry for a kind name, or nil.
func lookup(name string) *kind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
}

// Build constructs the core problem the spec describes. It builds from
// Canonical, so a problem reads no field its cache key leaves out. A
// builder that fails returns an error, and Build drops its problem.
func (f *File) Build() (core.Problem, error) {
	k := lookup(f.Problem)
	if k == nil {
		return nil, fmt.Errorf("spec: unknown problem kind %q", f.Problem)
	}
	c := f.Canonical()
	p, err := k.build(&c)
	if err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	return p, nil
}

func buildGraph(f *File) (core.Problem, error) {
	if len(f.Costs) == 0 {
		return nil, fmt.Errorf("graph problem needs costs")
	}
	g := &multistage.Graph{}
	for si, rows := range f.Costs {
		if len(rows) == 0 {
			return nil, fmt.Errorf("stage %d has no rows", si)
		}
		for ri, r := range rows {
			if len(r) != len(rows[0]) {
				return nil, fmt.Errorf("stage %d row %d has %d entries, want %d", si, ri, len(r), len(rows[0]))
			}
		}
		m := matrix.FromRows(rows)
		g.Cost = append(g.Cost, m)
		if si == 0 {
			g.StageSizes = append(g.StageSizes, m.Rows)
		}
		g.StageSizes = append(g.StageSizes, m.Cols)
	}
	// Validate the design too: a design the arrays cannot run is the
	// client's error, not a solver failure.
	p := &core.MultistageProblem{Graph: g, Design: f.Design}
	return p, p.Validate()
}

func buildNodeValued(f *File) (core.Problem, error) {
	cf, ok := PairCosts()[f.Cost]
	if !ok {
		return nil, fmt.Errorf("unknown pair cost %q", f.Cost)
	}
	p := &multistage.NodeValued{Values: f.Values, F: cf}
	return &core.NodeValuedProblem{Problem: p}, p.Validate()
}

func buildDTW(f *File) (core.Problem, error) {
	if len(f.X) == 0 || len(f.Y) == 0 {
		return nil, fmt.Errorf("dtw needs non-empty x and y series")
	}
	return &core.DTWProblem{X: f.X, Y: f.Y}, nil
}

func buildAlign(f *File) (core.Problem, error) {
	// Unlike dtw, empty series are legal: the affine-gap lattice
	// includes the empty row/column, so align("", y) is a gap run.
	p := align.Params{Open: f.GapOpen, Ext: f.GapExtend}
	return &core.AlignProblem{X: f.X, Y: f.Y, Params: p}, p.Validate()
}

func buildViterbi(f *File) (core.Problem, error) {
	t := &viterbi.Trellis{Node: f.Values, Trans: f.Costs}
	return &core.ViterbiProblem{Trellis: t}, t.Validate()
}

func buildKnapsack(f *File) (core.Problem, error) {
	if len(f.Proc) != len(f.Due) || len(f.Proc) != len(f.Weights) {
		return nil, fmt.Errorf("knapsack needs equal-length proc/due/weights, have %d/%d/%d",
			len(f.Proc), len(f.Due), len(f.Weights))
	}
	jobs := make([]knapsack.Job, len(f.Proc))
	for i := range jobs {
		jobs[i] = knapsack.Job{P: f.Proc[i], D: f.Due[i], W: f.Weights[i]}
	}
	return &core.KnapsackProblem{Jobs: jobs}, knapsack.Validate(jobs)
}

func buildChain(f *File) (core.Problem, error) {
	if len(f.Dims) < 2 {
		return nil, fmt.Errorf("chain needs at least 2 dims")
	}
	return &core.ChainOrderingProblem{Dims: f.Dims}, nil
}

func buildNonserial(f *File) (core.Problem, error) {
	g, ok := TernaryCosts()[f.Cost]
	if !ok {
		return nil, fmt.Errorf("unknown ternary cost %q", f.Cost)
	}
	// GName carries the spec's cost name into the chain so the
	// monomorphized kernel can dispatch to the inlinable op.
	c := &nonserial.Chain3{Domains: f.Domains, G: g, GName: f.Cost}
	return &core.NonserialChainProblem{Chain: c}, c.Validate()
}

// FromGraph encodes an explicit multistage graph problem as a spec File.
func FromGraph(g *multistage.Graph, design int) (*File, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	f := &File{Problem: "graph", Design: design}
	for _, c := range g.Cost {
		rows := make([][]float64, c.Rows)
		for i := 0; i < c.Rows; i++ {
			rows[i] = c.Row(i)
		}
		f.Costs = append(f.Costs, rows)
	}
	return f, nil
}

// FromChain encodes a matrix-chain ordering problem as a spec File.
func FromChain(dims []int) *File {
	return &File{Problem: "chain", Dims: append([]int(nil), dims...)}
}

// Marshal renders a spec File as indented JSON. The output is
// deterministic: encoding/json emits struct fields in declaration order
// and float64 formatting is stable, so identical Files always produce
// identical bytes (Parse → Marshal → Parse is a fixed point).
func (f *File) Marshal() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}
