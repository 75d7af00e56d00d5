package nonserial

// The zero-allocation elimination kernel. Eliminate's hot loop pays
// three costs the paper's fixed-function cells don't: a func call per
// step for G, one allocation per h-table row per eliminated variable,
// and [][] indirection per cell. EliminateFast closes the last two: the
// h-tables are two flat ping-pong buffers drawn from a pooled
// workspace. The first stays. The ternary cost is a generic value-type
// Ternary op, but Go compiles one body per GC shape, DefaultOp and
// SpanOp share the shape struct{}, and that body calls At through its
// dictionary: one indirect call per step, as `go tool objdump` shows on
// Go 1.24. An op type of its own shape gets a body of its own but keeps
// the dictionary call, so an inline cost needs a loop written per cost,
// as multistage.NodeValued.SolveMinPlus has.
//
// Every step evaluates EXACTLY Eliminate's float64 expression
// h[a][b] + G(v_a, v_b, v_c) with the same strict-< minimization in the
// same (a, b, c) order, so costs are bitwise identical to Eliminate and
// the measured step count equals equation (40) exactly as before.

import (
	"math"
	"sync"

	"systolicdp/internal/arena"
)

// Ternary is the ternary-cost constraint of the generic kernel, which
// calls At through its dictionary (see the file comment).
type Ternary interface {
	At(a, b, c float64) float64
}

// DefaultOp is DefaultG as a value type.
type DefaultOp struct{}

// At returns |a-b| + |b-c| + |a-c|/2.
func (DefaultOp) At(a, b, c float64) float64 { return DefaultG(a, b, c) }

// SpanOp is SpanG as a value type.
type SpanOp struct{}

// At returns max(a,b,c) - min(a,b,c).
func (SpanOp) At(a, b, c float64) float64 { return SpanG(a, b, c) }

// FuncOp adapts an arbitrary ternary cost to the Ternary constraint —
// the fallback for unnamed costs; it calls F once more, inside At.
type FuncOp struct{ F func(a, b, c float64) float64 }

// At calls the wrapped function.
func (o FuncOp) At(a, b, c float64) float64 { return o.F(a, b, c) }

// elimWS is the pooled pair of flat ping-pong h-tables.
type elimWS struct{ h, nh []float64 }

var elimPool = sync.Pool{New: func() any { return new(elimWS) }}

// EliminateFast is Eliminate on pooled flat tables: it dispatches on
// GName to the named op (falling back to calling G through FuncOp when
// the name is unknown or empty). Bitwise identical to Eliminate in both
// cost and steps.
func EliminateFast(c *Chain3) (cost float64, steps int, err error) {
	if err := c.Validate(); err != nil {
		return 0, 0, err
	}
	ws := elimPool.Get().(*elimWS)
	cost, steps = eliminateWS(c, ws)
	elimPool.Put(ws) // clean completion only (arena discipline)
	return cost, steps, nil
}

// eliminateWS dispatches GName to the matching op. GName is a promise
// that G is the named function (the constructors and the spec parser
// uphold it); an empty or unrecognized name takes the FuncOp path, which
// is always correct.
func eliminateWS(c *Chain3, ws *elimWS) (float64, int) {
	switch c.GName {
	case GNameDefault:
		return eliminateFlat(c.Domains, DefaultOp{}, ws)
	case GNameSpan:
		return eliminateFlat(c.Domains, SpanOp{}, ws)
	default:
		return eliminateFlat(c.Domains, FuncOp{c.G}, ws)
	}
}

// eliminateFlat runs equations (37)-(39) on flat ping-pong tables:
// h[a*mb+b] is h_{k-1}(v_k, v_{k+1}), rebuilt into nh[b*mc+cc] per
// eliminated variable. The (a, b, c) loop order, the candidate
// expression and the strict-< updates are exactly Eliminate's, so the
// result is bitwise identical; the step count is accumulated in bulk
// (the per-iteration counter hoisted out of the loop) and equals
// equation (40) as before.
func eliminateFlat[O Ternary](domains [][]float64, op O, ws *elimWS) (float64, int) {
	n := len(domains)
	steps := 0
	h := arena.Floats(ws.h, len(domains[0])*len(domains[1]))
	for i := range h {
		h[i] = 0
	}
	nh := ws.nh
	for k := 0; k+2 < n; k++ {
		da, db, dc := domains[k], domains[k+1], domains[k+2]
		mb, mc := len(db), len(dc)
		nh = arena.Floats(nh, mb*mc)
		for i := range nh {
			nh[i] = math.Inf(1)
		}
		for a := range da {
			va := da[a]
			hrow := h[a*mb : a*mb+mb]
			for b := range db {
				hab := hrow[b]
				vb := db[b]
				nrow := nh[b*mc : b*mc+mc]
				for cc := range dc {
					cand := hab + op.At(va, vb, dc[cc])
					if cand < nrow[cc] {
						nrow[cc] = cand
					}
				}
			}
		}
		steps += len(da) * mb * mc
		h, nh = nh, h
	}
	cost := math.Inf(1)
	for _, v := range h {
		if v < cost {
			cost = v
		}
	}
	steps += len(h)
	ws.h, ws.nh = h, nh // keep the grown capacity pooled
	return cost, steps
}
