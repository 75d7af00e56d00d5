// Package core is the paper's Table 1 in executable form: it classifies a
// dynamic-programming problem into one of the four formulation classes —
// monadic-serial, polyadic-serial, monadic-nonserial, polyadic-nonserial —
// recommends the evaluation method and architecture the paper prescribes
// for that class, and dispatches to the corresponding solver. Each
// problem type lives in a file of its own with its class, its
// closed-form price (Work) and its solver.
package core

import "fmt"

// Arity distinguishes monadic from polyadic functional equations
// (Section 2.1): monadic cost functions involve one recursive term,
// polyadic ones more.
type Arity int

// Arity values.
const (
	Monadic Arity = iota
	Polyadic
)

// String names the arity.
func (a Arity) String() string {
	if a == Monadic {
		return "monadic"
	}
	return "polyadic"
}

// Structure distinguishes serial from nonserial objective functions
// (Section 2.2): serial problems chain each functional term to its
// neighbours through shared variables.
type Structure int

// Structure values.
const (
	Serial Structure = iota
	Nonserial
)

// String names the structure.
func (s Structure) String() string {
	if s == Serial {
		return "serial"
	}
	return "nonserial"
}

// Class is one cell of the paper's classification.
type Class struct {
	Arity     Arity
	Structure Structure
}

// String renders e.g. "monadic-serial".
func (c Class) String() string { return c.Arity.String() + "-" + c.Structure.String() }

// Recommendation is one row of Table 1.
type Recommendation struct {
	Class          Class
	Characteristic string
	Method         string
	Requirements   string
}

// TableOne returns the paper's summary table.
func TableOne() []Recommendation {
	return []Recommendation{
		{
			Class:          Class{Monadic, Serial},
			Characteristic: "many states or quantized values in each stage",
			Method:         "solve as string of matrix multiplications",
			Requirements:   "systolic processing",
		},
		{
			Class:          Class{Polyadic, Serial},
			Characteristic: "many stages",
			Method:         "solve by divide-and-conquer algorithms, or search AND/OR-trees",
			Requirements:   "loose coupling for fine grain; tight coupling for coarse grain",
		},
		{
			Class:          Class{Monadic, Nonserial},
			Characteristic: "variables can be eliminated one by one",
			Method:         "transform into monadic-serial representation (by grouping variables)",
			Requirements:   "systolic processing",
		},
		{
			Class:          Class{Polyadic, Nonserial},
			Characteristic: "unstructured problems",
			Method:         "search AND/OR-graphs; transform into serial AND/OR-graphs",
			Requirements:   "dataflow or systolic processing",
		},
	}
}

// Recommend returns the Table 1 row for a class.
func Recommend(c Class) Recommendation {
	for _, r := range TableOne() {
		if r.Class == c {
			return r
		}
	}
	return Recommendation{Class: c, Method: "unknown"}
}

// Problem is a DP problem the library can classify, price and solve.
type Problem interface {
	// Classify returns the formulation class of the problem as posed.
	Classify() Class
	// Describe names the problem for reports.
	Describe() string
	// Work is the closed-form cost, known before the solve runs: the
	// kind keying its calibrated rate, and the work in that kind's own
	// units (stream cycles, lattice cells, min-plus updates, ...).
	Work() (kind string, units float64)
}

// Solution is the result of Solve.
type Solution struct {
	Class    Class
	Method   string
	Cost     float64
	Path     []int  // optimal assignment/path where applicable, else nil
	Ordering string // optimal parenthesisation for chain ordering, else ""
}

// Solve classifies the problem, applies the method Table 1 prescribes for
// its class, and returns the solution. Every problem type this package
// defines has a solve method, which Solve dispatches to; a Problem
// defined elsewhere has none and is rejected. A solve that fails returns
// an error, and Solve drops its Solution.
func Solve(p Problem) (*Solution, error) {
	class := p.Classify()
	s, ok := p.(interface{ solve() (*Solution, error) })
	if !ok {
		return nil, fmt.Errorf("core: unsupported problem type %T", p)
	}
	sol, err := s.solve()
	if err != nil {
		return nil, err
	}
	sol.Class, sol.Method = class, Recommend(class).Method
	return sol, nil
}
