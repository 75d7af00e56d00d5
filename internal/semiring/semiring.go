// Package semiring implements the closed semirings over which the paper's
// dynamic-programming recurrences are expressed.
//
// Section 3.1 of Wah & Li defines matrix multiplication over the closed
// semiring (R, MIN, +, +inf, 0), in which "MIN" plays the role of addition
// and "+" plays the role of multiplication of conventional linear algebra.
// Solving a monadic-serial DP problem is then exactly a string of matrix
// multiplications over that semiring (equations (7)-(8) of the paper).
//
// The package provides the (MIN,+) tropical semiring used throughout the
// paper, together with (MAX,+), the ordinary (+,x) semiring, and the
// Boolean (OR,AND) semiring used for reachability; all satisfy the
// monotonicity requirement of Bellman's Principle of Optimality.
package semiring

import (
	"fmt"
	"math"
)

// Semiring describes a closed semiring (S, Add, Mul, Zero, One) over
// float64-encoded elements. Add must be commutative, associative and
// idempotent-or-commutative-monoid; Mul must distribute over Add; Zero is
// the identity of Add and annihilator of Mul; One is the identity of Mul.
//
// Elements are carried as float64 so that all semirings share storage; the
// Boolean semiring encodes false/true as 0/1.
type Semiring interface {
	// Add combines two alternatives (MIN for shortest path).
	Add(a, b float64) float64
	// Mul extends a partial solution (+ for path-cost accumulation).
	Mul(a, b float64) float64
	// Zero is the Add identity and Mul annihilator (+inf for (MIN,+)).
	Zero() float64
	// One is the Mul identity (0 for (MIN,+)).
	One() float64
	// Name reports a short human-readable name, e.g. "min-plus".
	Name() string
}

// Comparative is implemented by semirings whose Add operation selects one
// of its arguments (MIN or MAX). Argmin/argmax-style path reconstruction is
// only meaningful for such semirings.
type Comparative interface {
	Semiring
	// Better reports whether a is strictly preferable to b under Add
	// (a < b for MIN-based semirings, a > b for MAX-based ones).
	Better(a, b float64) bool
}

// MinPlus is the tropical (MIN,+) semiring of the paper: Add=min, Mul=+,
// Zero=+inf, One=0. It solves minimum-cost path problems.
type MinPlus struct{}

// Add returns min(a, b). The builtin min inlines where math.Min is a call
// on amd64; the two differ only on a NaN meeting -Inf (NaN here, -Inf in
// math.Min), and a NaN is outside the semiring.
func (MinPlus) Add(a, b float64) float64 { return min(a, b) }

// Mul returns a + b, with the convention that anything plus +inf is +inf.
func (MinPlus) Mul(a, b float64) float64 { return a + b }

// Zero returns +inf, the identity of min.
func (MinPlus) Zero() float64 { return math.Inf(1) }

// One returns 0, the identity of +.
func (MinPlus) One() float64 { return 0 }

// Name returns "min-plus".
func (MinPlus) Name() string { return "min-plus" }

// Better reports a < b.
func (MinPlus) Better(a, b float64) bool { return a < b }

// MaxPlus is the (MAX,+) semiring: Add=max, Mul=+, Zero=-inf, One=0. It
// solves maximum-reward path problems (the paper's cost functions may
// maximise or minimise; see Section 2).
type MaxPlus struct{}

// Add returns max(a, b), the builtin (see MinPlus.Add).
func (MaxPlus) Add(a, b float64) float64 { return max(a, b) }

// Mul returns a + b.
func (MaxPlus) Mul(a, b float64) float64 { return a + b }

// Zero returns -inf, the identity of max.
func (MaxPlus) Zero() float64 { return math.Inf(-1) }

// One returns 0.
func (MaxPlus) One() float64 { return 0 }

// Name returns "max-plus".
func (MaxPlus) Name() string { return "max-plus" }

// Better reports a > b.
func (MaxPlus) Better(a, b float64) bool { return a > b }

// PlusTimes is the ordinary (+,x) semiring of linear algebra, used to
// cross-check the systolic matrix pipelines against conventional products.
type PlusTimes struct{}

// Add returns a + b.
func (PlusTimes) Add(a, b float64) float64 { return a + b }

// Mul returns a * b.
func (PlusTimes) Mul(a, b float64) float64 { return a * b }

// Zero returns 0.
func (PlusTimes) Zero() float64 { return 0 }

// One returns 1.
func (PlusTimes) One() float64 { return 1 }

// Name returns "plus-times".
func (PlusTimes) Name() string { return "plus-times" }

// BoolOrAnd is the Boolean semiring (OR, AND) with elements 0 and 1,
// computing reachability in multistage graphs.
type BoolOrAnd struct{}

// Add returns a OR b on 0/1-encoded booleans.
func (BoolOrAnd) Add(a, b float64) float64 {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

// Mul returns a AND b on 0/1-encoded booleans.
func (BoolOrAnd) Mul(a, b float64) float64 {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}

// Zero returns 0 (false).
func (BoolOrAnd) Zero() float64 { return 0 }

// One returns 1 (true).
func (BoolOrAnd) One() float64 { return 1 }

// Name returns "bool-or-and".
func (BoolOrAnd) Name() string { return "bool-or-and" }

// ByName returns the semiring with the given Name.
func ByName(name string) (Semiring, error) {
	switch name {
	case "min-plus":
		return MinPlus{}, nil
	case "max-plus":
		return MaxPlus{}, nil
	case "plus-times":
		return PlusTimes{}, nil
	case "bool-or-and":
		return BoolOrAnd{}, nil
	default:
		return nil, fmt.Errorf("semiring: unknown semiring %q", name)
	}
}

// All returns every semiring provided by the package, for property tests.
func All() []Semiring {
	return []Semiring{MinPlus{}, MaxPlus{}, PlusTimes{}, BoolOrAnd{}}
}

// Fold reduces xs with s.Add starting from s.Zero(); for (MIN,+) this is
// the minimum of xs. An empty slice yields s.Zero().
func Fold(s Semiring, xs []float64) float64 {
	acc := s.Zero()
	for _, x := range xs {
		acc = s.Add(acc, x)
	}
	return acc
}

// Dot computes the semiring inner product of equal-length vectors a and b:
// Add-fold of elementwise Mul. For (MIN,+) this is the paper's equation (7)
// min_j(a_j + b_j). It panics if the lengths differ.
func Dot(s Semiring, a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("semiring: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	acc := s.Zero()
	for i := range a {
		acc = s.Add(acc, s.Mul(a[i], b[i]))
	}
	return acc
}

// ArgDot computes Dot and additionally returns the index attaining the
// folded value under a Comparative semiring (ties resolve to the smallest
// index). It returns index -1 for empty vectors.
func ArgDot(s Comparative, a, b []float64) (val float64, arg int) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("semiring: ArgDot length mismatch %d vs %d", len(a), len(b)))
	}
	val = s.Zero()
	arg = -1
	for i := range a {
		t := s.Mul(a[i], b[i])
		if arg == -1 || s.Better(t, val) {
			val, arg = t, i
		}
	}
	return val, arg
}
